"""One fresh topospec CLI process, timed from the inside.

Usage: python child.py REPORT MODE [topospec arguments...]

MODE is ``run`` (plain CLI call), ``trace`` (layer spans recorded),
``capture`` (hadamard instance recorded) or ``probe`` (set-up only: import
the CLI, parse the config, exit). The parent notes the monotonic clock just
before it starts this process; REPORT receives the clock after set-up and
after the command, the exit code and, when traced, the spans. CLOCK_MONOTONIC
is system-wide on Linux, so the two clocks compare.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _config_path(argv: list[str]) -> str | None:
    return argv[argv.index("--config") + 1] if "--config" in argv else None


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report: dict = {"rc": None}
    tracer = None
    try:
        if mode == "trace":
            import tracer as tracing

            import topospec.cli as cli

            tracer = tracing.Tracer()
            tracing.install(tracer)
        else:
            import topospec.cli as cli
        cli.load_config(_config_path(argv))
        report["t_setup"] = time.monotonic()
        if mode == "probe":
            report["rc"] = 0
            return 0
        capture: dict = {}
        if mode == "capture":
            import tracer as tracing

            tracing.capture_hadamard_instance(capture)
        if tracer is not None:
            root = tracer.open("cli.main")
            try:
                report["rc"] = cli.main(argv)
            finally:
                tracer.close(root)
        else:
            report["rc"] = cli.main(argv)
        report["t_end"] = time.monotonic()
        if capture:
            report["capture"] = capture
        return report["rc"]
    finally:
        if tracer is not None:
            report["trace"] = tracer.result()
        Path(report_path).write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
