"""Host and build facts written into every result file."""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    """Parse a sysfs cache size such as '2048K' or '4M'."""
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cpu_caches() -> dict:
    """Per-core cache sizes of cpu0, by level, from sysfs."""
    caches: dict[str, int | None] = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level is None or kind == "Instruction":
            continue
        caches[f"l{level}_bytes"] = _size_bytes(_read(index / "size"))
    return caches


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    """The checked-out commit, or 'unknown' outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def host_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **cpu_caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines(root / "src"),
    }


def loadavg_1m() -> float:
    return os.getloadavg()[0]
