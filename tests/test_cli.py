import json

from heckelab.cli import main
from heckelab.errors import EXIT_DOMAIN_ERROR

SMOKE = ["scan", "--D", "-4", "--P", "5", "--c-max", "5", "--tol", "1e-8"]


def test_scan_prints_stable_json(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        assert main(SMOKE) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["D"] == -4 and payload["P"] == [5] and payload["records"]

    assert main(SMOKE + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "scan.json").read_text() == outputs[0]


def test_domain_error_exit_code(capsys):
    assert main(["scan", "--D", "-5", "--P", "5", "--c-max", "5", "--tol", "1e-8"]) == EXIT_DOMAIN_ERROR
    assert "BadDiscriminant" in capsys.readouterr().err
