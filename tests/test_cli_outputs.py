"""The CLI's output rule: data, model and report are written in that order,
and a failed write leaves no output of the run behind and prints nothing."""

import pytest

from rssiloc.cli import main

ANCHORS = "0,0;400,0;200,300"


def unwritable(tmp_path, how):
    """An output path that cannot be written, made one of three ways."""
    if how == "missing-dir":
        return tmp_path / "nodir" / "out"
    if how == "existing-dir":
        path = tmp_path / "adir"
        path.mkdir()
        return path
    blocker = tmp_path / "plain.txt"  # a regular file used as a directory
    blocker.write_text("x")
    return blocker / "out"


@pytest.fixture
def testbed(tmp_path):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--anchors", ANCHORS, "--positions", "6",
                 "--samples", "3", "-o", str(sim)]) == 0
    return sim


@pytest.fixture
def saved_model(tmp_path, testbed):
    model = tmp_path / "model.json"
    assert main(["fit", "--model", "linear", "-i", str(testbed),
                 "--save-model", str(model)]) == 0
    return model


def command(name, tmp_path, testbed, saved_model):
    """argv for the command, and its output flags in write order."""
    work = tmp_path / "run"
    work.mkdir()
    if name == "locate":
        argv = ["locate", "--solver", "lls", "--anchors", ANCHORS]
        flags = ("-o", "--report")
    elif name == "predict":
        argv = ["predict", "--model-file", str(saved_model)]
        flags = ("-o", "--report")
    else:
        argv = (["treeloc", "--n-trees", "2", "--max-depth", "3"]
                if name == "treeloc" else ["fit", "--model", "tree"])
        flags = ("-o", "--save-model", "--report")
    outputs = {flag: work / f"out{i}" for i, flag in enumerate(flags)}
    return argv + ["-i", str(testbed)], outputs


CASES = [(name, flag) for name, later in
         (("locate", ["--report"]), ("predict", ["--report"]),
          ("fit", ["--save-model", "--report"]),
          ("treeloc", ["--save-model", "--report"]))
         for flag in later]


@pytest.mark.parametrize("how", ["missing-dir", "existing-dir", "under-file"])
@pytest.mark.parametrize("name,bad_flag", CASES)
def test_failed_write_leaves_no_outputs(tmp_path, testbed, saved_model, capsys,
                                        name, bad_flag, how):
    argv, outputs = command(name, tmp_path, testbed, saved_model)
    outputs[bad_flag] = unwritable(tmp_path, how)
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    capsys.readouterr()

    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "IoFailure" in err
    assert out == ""
    assert not any(path.exists() for flag, path in outputs.items()
                   if flag != bad_flag)
    assert not outputs[bad_flag].is_file()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("name", ["locate", "predict", "fit", "treeloc"])
def test_success_writes_all_then_prints(tmp_path, testbed, saved_model, capsys,
                                        name):
    argv, outputs = command(name, tmp_path, testbed, saved_model)
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    capsys.readouterr()

    assert main(argv) == 0
    assert all(path.is_file() for path in outputs.values())
    assert capsys.readouterr().out == outputs["--report"].read_text()


def test_locate_names_the_file_line_after_blank_lines(tmp_path, capsys):
    rows = [[-50.0, -55.0, -60.0], [-50.0, -200.0, -200.0]]
    good, short = (",".join(f"{v:g}" for v in row) + ",0,0" for row in rows)
    path = tmp_path / "gaps.csv"
    path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                    f"{good}\n\n\n{short}\n")  # the short row is on line 5
    out = tmp_path / "pred.csv"
    assert main(["locate", "--solver", "lls", "--anchors", ANCHORS,
                 "-i", str(path), "-o", str(out)]) == 4
    assert "row 5: fewer than 3 in-range anchors" in capsys.readouterr().err
    assert not out.exists()
