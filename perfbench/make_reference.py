"""Write perfbench/reference.json from the outputs of the current program.

    python3 perfbench/make_reference.py

The references pin the `verify --all --seed 1` report, the five figure
SVGs, and the first chunk of the scenes workload at seed 1.  Regenerate
them only for a change that is meant to alter those bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from traversale import cli  # noqa: E402
from traversale.render import render_figure  # noqa: E402
from traversale.verify import verify_all  # noqa: E402
from workloads import DEFAULT_SEED, FIGURES, Scenes  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    os.environ.pop("DESARGUES_SEED", None)
    reports = verify_all(DEFAULT_SEED)
    reference = {
        "verify_all_seed1_sha256": _sha("\n".join(r.to_text() for r in reports)),
        "figures_sha256": {name: _sha(render_figure(name)) for name in FIGURES},
        "scenes_seed1_chunk0_sha256": [],
    }
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        _, scenes = Scenes(DEFAULT_SEED, workdir, reference).prepare(0)
        for path, _, _, _, _, svgs in scenes:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if cli.main(["run", path]) != 0:
                    raise SystemExit(f"{path} did not pass:\n{out.getvalue()}")
            with open(svgs[0], encoding="utf-8") as fh:
                reference["scenes_seed1_chunk0_sha256"].append([_sha(out.getvalue()), _sha(fh.read())])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
