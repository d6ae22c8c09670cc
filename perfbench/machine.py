"""Machine record written with every benchmark result.

Run as a script (``python3 perfbench/machine.py --triad BYTES``) it measures
the numpy triad bandwidth in its own process, so the arrays never count
towards the benchmark process's peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# Used when the OS does not report a last-level cache size.
DEFAULT_LLC_BYTES = 32 << 20
TRIAD_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def llc_bytes() -> tuple[int, str]:
    """Size of the highest-level CPU cache and where the number came from."""
    best = (0, 0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        best = max(best, (level, value))
    if best[1]:
        return best[1], f"sysfs L{best[0]}"
    return DEFAULT_LLC_BYTES, "default"


def blas_info() -> dict:
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    if threads is None:
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS", 0)) or None
    return {"blas": name, "blas_threads": threads}


def triad(array_bytes: int) -> float:
    """Best-of-N bandwidth in GB/s of ``a = s * c; a += b`` over float64 arrays.

    The two numpy passes move five arrays' worth of bytes (read c, write a,
    read a, read b, write a), and that is the count used.
    """
    import numpy as np

    n = max(1, array_bytes // 8)
    a = np.zeros(n)
    b = np.ones(n)
    c = np.full(n, 2.0)
    best = float("inf")
    for _ in range(TRIAD_REPEATS):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    if a[0] != 7.0 or a[-1] != 7.0:
        raise RuntimeError("triad produced a wrong result")
    return 5 * 8 * n / best / 1e9


def measure_triad(array_bytes: int) -> float:
    """Run the triad in a child process and return its GB/s."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--triad", str(array_bytes)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def triad_array_bytes(llc: int) -> int:
    """Each of the three arrays gets a third of four times the last-level cache."""
    return -(-4 * llc // 3)


def record(root: Path) -> dict:
    """Everything about the machine a result needs, triad included."""
    import numpy as np
    import scipy

    llc, llc_source = llc_bytes()
    array_bytes = triad_array_bytes(llc)
    out = {
        "git_sha": git_sha(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "triad_array_bytes": array_bytes,
        "triad_total_bytes": 3 * array_bytes,
    }
    out["triad_GBps"] = measure_triad(array_bytes)
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triad", type=int, required=True, help="bytes per array")
    print(json.dumps(triad(parser.parse_args().triad)))
