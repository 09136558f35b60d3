import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# keep the compiled kernel library inside the checkout, as the benchmark does
os.environ.setdefault("REPRO_KERNEL_CACHE", str(ROOT / ".bench_build" / "repro-kernels"))
