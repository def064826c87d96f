"""Stdout of the commands that run the pruned search longest, byte for byte.

``pruned_golden.json`` holds what ``report 3`` ... ``report 6`` and ``qi`` of
qb_2 and qb_3 on free:1..4,2 with ``--strategy pruned`` printed, and their
exit codes, before the search cut dead prefixes one depth early; their
verdicts and witnesses stay those bytes.  Their ``budgetUsed`` fields were
taken again from ``helpers.ref_quasi_pruned`` once cut candidates and the
star preimage scan were no longer charged; nothing else in the file moved.
"""

import json
from pathlib import Path

import pytest

from palgebra.cli import main
from palgebra.decide import qb_quasi_identity

GOLDEN = json.loads((Path(__file__).parent / "pruned_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_is_unchanged(command, tmp_path, capsys):
    argv = command.split()
    for n in (2, 3):
        path = tmp_path / f"qb{n}.json"
        path.write_text(json.dumps(qb_quasi_identity(n).to_json_dict()), encoding="utf-8")
        argv = [str(path) if a == path.name else a for a in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (GOLDEN[command]["exit"], GOLDEN[command]["stdout"], "")
