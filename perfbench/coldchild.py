"""One traced cold invocation of the rgupz command.

    python -X importtime perfbench/coldchild.py SPANS_OUT ARGV...

Runs the package's __main__ as `python -m rgupzeeman ARGV...` does (same
stdout, same exit code), with its public functions wrapped in spans.  On
exit it writes the spans, the number of modules the package loaded and
whether scipy is among them to SPANS_OUT as JSON.  Import timings go to
stderr via -X importtime.
"""

import runpy
import sys

from spans import Tracer

_before = set(sys.modules)

import rgupzeeman.cli  # noqa: E402,F401  (after the snapshot, before patching)


def main() -> int:
    out_path = sys.argv.pop(1)
    tracer = Tracer()
    tracer.install()
    try:
        runpy.run_module("rgupzeeman", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:  # __main__ always exits with main()'s code
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    loaded = [name for name in sys.modules if name not in _before]
    import json

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "modules_loaded": len(loaded),
                   "scipy_loaded": "scipy" in sys.modules}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
