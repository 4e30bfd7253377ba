"""One measurement in a fresh interpreter; run.py starts it, never a user.

    python3 perfbench/child.py setup|run|trace <result.json> <config>...

setup  times `import fedsim`, `config.parse_config` and `runner.build_problem`
       of every config: the cold set-up a user pays before round one.
run    times `cli.main(["run", config])` for every config, artifact writes
       included, and reports the process's peak resident set size.
trace  does what run does with spans recorded (see spans.py) and writes
       them to `<result.json>.spans`.

The host's speed drifts by tens of percent within seconds, so every mode
also times a fixed calibration loop right next to the measured work
(`cal_s`): after the set-up, and after every communication round. run.py
uses these to express times at one reference speed.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for 50 forward and backward passes of a fixed 16-64-8 MLP on
    64 rows, written in plain numpy: the same mix of small matrix products
    and per-call interpreter work as fedsim's rounds, but independent of
    fedsim's code, so a change to fedsim cannot change it (about 5 ms)."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    w1 = 0.1 * rng.standard_normal((16, 64))
    w2 = 0.1 * rng.standard_normal((64, 8))
    rows = np.arange(64)
    y = rng.integers(0, 8, 64)
    start = time.perf_counter()
    for _ in range(50):
        h = np.maximum(x @ w1 + 0.1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        grad = np.concatenate([(x.T @ ((p @ w2.T) * (h > 0))).ravel(), (h.T @ p).ravel()])
        bool(np.all(np.isfinite(grad)))
    return time.perf_counter() - start


class RoundClock:
    """Stands in for `fedsim.runner.run_round`: times each round and runs the
    calibration loop right after it, outside the round's own time."""

    def __init__(self, run_round, calibrate) -> None:
        self.run_round = run_round
        self.calibrate = calibrate
        self.round_s: list[float] = []
        self.cal_s: list[float] = []

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        result = self.run_round(*args, **kwargs)
        self.round_s.append(time.perf_counter() - start)
        self.cal_s.append(self.calibrate())
        return result


def main(argv: list[str]) -> int:
    mode, result_path, configs = argv[1], argv[2], argv[3:]
    start = time.perf_counter()
    if mode == "setup":
        from fedsim import config, runner

        for path in configs:
            cfg = config.parse_config(path)
            runner.build_problem(cfg, cfg.seed)
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s, "cal_s": [calibrate() for _ in range(5)]}
    elif mode in ("run", "trace"):
        from fedsim import cli, runner

        tracer = None
        cal = calibrate
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            # a span of its own, so no fedsim span counts calibration as self time
            cal = tracer.wrap(calibrate, "bench.calibrate")
        clock = RoundClock(runner.run_round, cal)
        runner.run_round = clock
        exit_codes = []
        start = time.perf_counter()
        for path in configs:
            exit_codes.append(cli.main(["run", path]))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(result_path + ".spans")
        result = {
            "wall_s": wall,
            "round_s": clock.round_s,
            "cal_s": clock.cal_s,
            "exit_codes": exit_codes,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
