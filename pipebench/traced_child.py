"""Run one ``encore`` command with every traced layer wrapped.

    python3 pipebench/traced_child.py SPANS_JSON ENCORE_ARGS...

Installs the wrappers from ``spans.py`` where ``encore.cli``,
``encore.curriculum`` and ``encore.metrics`` import the traced functions,
calls ``encore.cli.main`` with the remaining arguments, writes the spans
to SPANS_JSON when the command returns, and exits with its exit code.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (found next to this script)


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    modules = [importlib.import_module(name) for name in spans.TRACED_MODULES]
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        code = modules[0].main(args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(spans.to_json(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
