"""Tests for the CLI and rulebook serialization."""

import json

import pytest

from repro.__main__ import main
from repro.learning import learn
from repro.learning.serialize import (load_rulebook, rulebook_from_dict,
                                      rulebook_to_dict, save_rulebook)


@pytest.fixture(scope="module")
def learned():
    return learn()


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_rulebook_roundtrip(tmp_path, learned):
    path = tmp_path / "rules.json"
    save_rulebook(learned.rulebook, str(path))
    loaded = load_rulebook(str(path))
    assert len(loaded) == len(learned.rulebook)
    assert loaded._shapes == learned.rulebook._shapes
    assert {rule.guest_pattern for rule in loaded.rules} == \
        {rule.guest_pattern for rule in learned.rulebook.rules}


def test_rulebook_roundtrip_preserves_coverage(learned):
    from repro.guest.asm import assemble
    from repro.guest.decoder import decode

    data = rulebook_to_dict(learned.rulebook)
    loaded = rulebook_from_dict(json.loads(json.dumps(data)))
    program = assemble("    add r0, r1, r2\n    svc #0", base=0)
    insns = [decode(int.from_bytes(program.data[i:i + 4], "little"), i)
             for i in range(0, 8, 4)]
    for insn in insns:
        assert loaded.covers(insn) == learned.rulebook.covers(insn)


def test_rulebook_rejects_unknown_format():
    with pytest.raises(ValueError):
        rulebook_from_dict({"format": 99, "rules": [], "shapes": []})


def test_saved_file_is_plain_json(tmp_path, learned):
    path = tmp_path / "rules.json"
    save_rulebook(learned.rulebook, str(path))
    data = json.loads(path.read_text())
    assert data["format"] == 1
    assert all("guest" in rule and "host" in rule for rule in data["rules"])


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "perlbench" in out and "rules-full" in out and "fig16" in out


def test_cli_run_workload(capsys):
    assert main(["run", "sjeng", "--engine", "tcg"]) == 0
    out = capsys.readouterr().out
    assert "118238" in out           # sjeng's checksum
    assert "cost per guest insn" in out


def test_cli_run_unknown_workload(capsys):
    assert main(["run", "nonesuch"]) == 2


def test_cli_bench_unknown(capsys):
    assert main(["bench", "fig99"]) == 2


def test_cli_exec_file(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
main:
    mov r0, #7
    bl updec
    mov r0, #0
    bl uexit
""")
    assert main(["exec", str(source), "--engine", "rules-base"]) == 0
    assert capsys.readouterr().out.startswith("7\n")


def test_cli_learn_and_save(tmp_path, capsys):
    path = tmp_path / "book.json"
    assert main(["learn", "--save", str(path)]) == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert "parameterized rules" in out
