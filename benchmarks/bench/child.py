"""One ``repro`` CLI invocation in a fresh process, as ``bench.py`` times it.

``python child.py REQUEST`` reads the JSON request ``{"argv", "src",
"result", "spans"}``, imports ``repro.cli`` and parses ``argv`` (the end
of set-up), calls ``repro.cli.main(argv)`` as a user's ``repro ...``
would, and writes the ``time.monotonic()`` stamps of those points and
the exit code to ``result``.  With ``spans`` set, the layers are wrapped
first (see ``layers.py``) and every process of the run writes its spans
into that directory.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, request["src"])
    recorder = None
    if request["spans"]:
        import layers

        recorder = layers.Recorder(request["spans"])
        layers.install(recorder)
    import repro.cli

    argv = request["argv"]
    repro.cli.build_parser().parse_args(argv)
    setup_end = time.monotonic()
    if recorder is not None:
        root = recorder.begin(layers.ROOT)
        layers.export_to_children(recorder, root)
    start = time.monotonic()
    try:
        code = repro.cli.main(argv)
    finally:
        end = time.monotonic()
        if recorder is not None:
            recorder.end(root)
            recorder.flush()
    Path(request["result"]).write_text(
        json.dumps(
            {"setup_end": setup_end, "start": start, "end": end, "code": code}
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
