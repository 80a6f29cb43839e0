"""Child processes of the benchmark, started by run.py.

    python3 bench/child.py setup <workload>
        Import the package, build the workload's configs and warm up, as a
        process that runs the workload does before its first pass.

    python3 bench/child.py reproduce <spans.json> <pass id> -- <cli args>
        Run the entropy-lab command line with the tracing wrappers installed,
        then write its spans and the import time of the command line module
        to <spans.json>.  Exits with the command line's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH_DIR.parent / "src"))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import entropy_lab as el
        import workloads

        workloads.WORKLOADS[argv[1]](el, 0, BENCH_DIR.parent / ".bench_out").warm_up()
        return 0
    if mode == "reproduce":
        spans_path, pass_id, _, *cli_args = argv[1:]
        t0 = time.perf_counter()
        import entropy_lab.cli as cli
        import_s = time.perf_counter() - t0

        import spans

        tracer = spans.Tracer()
        tracer.pass_id = pass_id
        undo = spans.install(tracer)
        try:
            with tracer.span("cli.main"):
                code = cli.main(cli_args)
        finally:
            undo()
        Path(spans_path).write_text(json.dumps(
            {"import_s": import_s, "exit": code, "spans": tracer.records()}))
        return code
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
