"""One step of a benchmark run, in a fresh interpreter started by run.py.

    child.py setup [ARTIFACTS]            time import drivemon (+ artifact load)
                                          and the reference kernel after it
    child.py build MODEL_DIR              train the detect model into MODEL_DIR
    child.py inputs WORKLOAD SEED WORK    write the workload's inputs under WORK
    child.py work WORKLOAD SEED WORK SECONDS TRACE MODEL_DIR RESULT

Only the standard library is imported at module level, so ``setup`` times
the import of drivemon (and numpy under it) in a fresh interpreter.
"""

from __future__ import annotations

import json
import sys
import time

#: Reference-kernel parts for set-up time, which is imports and JSON parsing.
SETUP_REFERENCE = ("parse", "reduce")


def setup(artifacts: str | None) -> None:
    """Print the set-up time, then the reference speed measured right after it."""
    started = time.perf_counter()
    import drivemon
    if artifacts:
        from pathlib import Path
        art = Path(artifacts)
        drivemon.load_model(art / "model.json")
        drivemon.MinMaxScaler.load(art / "scaler.json")
        drivemon.Threshold.load(art / "threshold.json")
        json.loads((art / "pipeline.json").read_text())
    elapsed = time.perf_counter() - started
    from reference import Reference
    print(repr(elapsed), repr(Reference(SETUP_REFERENCE).speed()))


def main(argv: list[str]) -> int:
    step = argv[0]
    if step == "setup":
        setup(argv[1] if len(argv) > 1 else None)
        return 0
    from pathlib import Path

    import workloads
    if step == "build":
        workloads.build_model(Path(argv[1]))
    elif step == "inputs":
        workloads.WORKLOADS[argv[1]].make_inputs(Path(argv[3]), int(argv[2]))
    elif step == "work":
        import worker
        name, seed, work, seconds, trace, model_dir, result = argv[1:8]
        out = worker.run(workloads.WORKLOADS[name], int(seed), Path(work), float(seconds),
                         trace == "1", Path(model_dir))
        Path(result).write_text(json.dumps(out) + "\n")
    else:
        print(f"unknown step {step!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
