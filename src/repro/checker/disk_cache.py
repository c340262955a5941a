"""The on-disk cache's one disk layer: where entries live, how they are
read and written, and how source files are digested into invalidation
keys.

Two kinds of entries persist here, each pickled under
``<cache dir>/<namespace>/<entry>.pkl``:

- scenario-prefix traces (:mod:`repro.remix.spec_cache`), one namespace
  per system and spec-source digest;
- compile bundles (:mod:`repro.checker.bundle`), one namespace per
  interpreter + kernel-emitter + deriving-code digest.

Both follow the same rules.  The directory is
``~/.cache/repro-spec-cache`` unless ``REPRO_SPEC_CACHE_DIR`` (or
:func:`set_disk_cache_dir`) overrides it; ``off`` disables persistence.
A namespace names a digest of everything its entries were derived from,
so an edit orphans old entries instead of ever serving a stale one.
Writes are atomic (temp file + rename), so concurrent processes never
observe a torn entry; an absent, unreadable or damaged entry is a miss,
and a read-only or full directory degrades to derive-only.

This module sits below both :mod:`repro.checker` and :mod:`repro.remix`
(a checker run must not import the campaign stack) and keeps no
counters: each caller counts its own hits and misses.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional

_OFF = ("", "off", "0", "none")

#: Explicit override (:func:`set_disk_cache_dir`): None = resolve from the
#: environment, "" = disabled, otherwise a directory path.
_DISK_OVERRIDE: Optional[str] = None

#: Memoized :func:`source_digest` results, by path.
_SOURCE_DIGESTS: Dict[str, Optional[str]] = {}


def set_disk_cache_dir(path: Optional[str]) -> None:
    """Override the on-disk cache location for this process.

    ``None`` restores environment-based resolution; ``""`` (or ``"off"``
    / ``"0"``) disables persistence entirely."""
    global _DISK_OVERRIDE
    if path is not None and path.strip().lower() in _OFF:
        path = ""
    _DISK_OVERRIDE = path


def disk_dir() -> Optional[str]:
    """The active on-disk cache directory, or None when disabled."""
    if _DISK_OVERRIDE is not None:
        return _DISK_OVERRIDE or None
    env = os.environ.get("REPRO_SPEC_CACHE_DIR")
    if env is not None:
        return None if env.strip().lower() in _OFF else env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-spec-cache")


def entry_path(namespace: str, key: str) -> Optional[str]:
    """Where the entry for ``key`` lives, or None when persistence is
    disabled."""
    directory = disk_dir()
    if directory is None:
        return None
    entry = hashlib.sha1(key.encode("utf-8")).hexdigest()[:24]
    return os.path.join(directory, namespace, f"{entry}.pkl")


def load(path: str) -> Optional[Any]:
    """The payload stored at ``path``; None when absent, unreadable or
    damaged (any unpickling error)."""
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except Exception:
        return None


def store(path: str, payload: Any) -> None:
    """Write ``payload`` at ``path`` atomically; a read-only or full
    cache directory degrades to derive-only."""
    # Only a cold run stores: keep tempfile (and the shutil / bz2 / lzma it
    # drags in) out of every warm process's imports.
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: readers never see torn entries
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass


def source_digest(path: str) -> Optional[str]:
    """SHA-1 over a source file, or over every ``*.py`` directly inside a
    directory (names and bytes, sorted); None when unreadable.  Memoized
    per process: sources are not expected to change under a running one."""
    if path not in _SOURCE_DIGESTS:
        digest = hashlib.sha1()
        try:
            if os.path.isdir(path):
                files = [
                    os.path.join(path, entry)
                    for entry in sorted(os.listdir(path))
                    if entry.endswith(".py")
                ]
            else:
                files = [path]
            for file in files:
                digest.update(os.path.basename(file).encode())
                with open(file, "rb") as fh:
                    digest.update(fh.read())
            _SOURCE_DIGESTS[path] = digest.hexdigest()
        except OSError:
            _SOURCE_DIGESTS[path] = None
    return _SOURCE_DIGESTS[path]
