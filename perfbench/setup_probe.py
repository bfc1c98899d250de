"""Set-up time of one fresh process: `import selflow`, `parse_config` and the
`config.build_*` calls of a workload config.  Prints the time taken in
reference seconds (see hostspeed.py), then in measured seconds.

Usage: python3 perfbench/setup_probe.py <checkout root> <config file>
"""

import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, pin_to_one_cpu

root, cfg_path = Path(sys.argv[1]), Path(sys.argv[2])
text = cfg_path.read_text(encoding="utf-8")
sys.path.insert(0, str((root / "src").resolve()))

pin_to_one_cpu()
with HostSpeed() as speed:
    mark = speed.mark()
    t0 = time.perf_counter()
    import selflow  # noqa: E402
    from selflow import config  # noqa: E402

    cfg = config.parse_config(text)
    grid = config.build_grid(cfg)
    u0 = config.build_initial_u(cfg, grid)
    d0 = config.build_initial_d(cfg, grid)
    params = config.build_params(cfg, grid, umax=float(abs(u0).max()))
    S = config.build_noise_operator(cfg, grid)
    h = config.build_magnetic_field(cfg, grid)
    elapsed = time.perf_counter() - t0
    to_ref = speed.to_ref(mark)

if not Path(selflow.__file__).resolve().is_relative_to((root / "src").resolve()):
    sys.exit(f"selflow imported from {selflow.__file__}")
print(repr(elapsed * to_ref), repr(elapsed))
