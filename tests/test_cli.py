from ota_stations.cli import main

CONFIG = """
[scenario]
name = cli-demo
seed = 5
bundle_bytes = 500000
image_count = 2
coverage_pct = 100
horizon_ms = 600000
"""


def _write(tmp_path, text=CONFIG):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def test_run_exits_zero_and_prints_csv(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code = main(["run", "--config", _write(tmp_path),
                 "--csv", str(out_csv)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.startswith("section,key,value")
    assert "scenario,install_count,2" in captured
    assert out_csv.read_text().startswith("section,key,value")


def test_seed_flag_overrides_config(tmp_path, capsys):
    main(["run", "--config", _write(tmp_path), "--seed", "42"])
    assert "scenario,seed,42" in capsys.readouterr().out


def test_bad_config_exits_two(tmp_path, capsys):
    code = main(["run", "--config", _write(tmp_path, "warp = 9\n")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_coverage(tmp_path, capsys):
    code = main(["sweep", "--config", _write(tmp_path),
                 "--param", "coverage", "--values", "0,100"])
    out = capsys.readouterr().out
    assert code == 0
    header, low, high = out.strip().splitlines()
    assert header == "coverage,mean_download_ms,cellular_bytes,alerts"
    assert low.startswith("0,") and high.startswith("100,")
    # Full coverage downloads faster than none.
    assert float(high.split(",")[1]) < float(low.split(",")[1])


def test_sweep_clients(tmp_path, capsys):
    code = main(["sweep", "--config", _write(tmp_path),
                 "--param", "clients", "--values", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    header, one, two = out.strip().splitlines()
    assert header == "clients,mean_download_ms,cellular_bytes,alerts"
    assert one.startswith("1,") and two.startswith("2,")
    # Each vehicle reports its status over cellular.
    assert int(two.split(",")[2]) > int(one.split(",")[2])
    assert one.endswith(",0") and two.endswith(",0")


def test_sweep_mix(tmp_path, capsys):
    code = main(["sweep", "--config", _write(tmp_path), "--param", "mix"])
    out = capsys.readouterr().out
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "mix,mean_download_ms,cellular_bytes,alerts"
    times = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    cellular = {row.split(",")[0]: int(row.split(",")[2]) for row in rows}
    assert list(times) == ["hit", "miss", "unknown", "cellular"]
    assert times["hit"] < times["miss"] < times["cellular"]
    # Only the cellular row downloads images over cellular.
    assert cellular["cellular"] > 100 * cellular["hit"]
    assert main(["sweep", "--config", _write(tmp_path), "--param", "mix",
                 "--values", "warm"]) == 2


def test_suite_command_passes(capsys):
    code = main(["suite", "safety", "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cost_command(tmp_path, capsys):
    code = main(["cost", "--config", _write(tmp_path), "--rate", "1e-9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "relative_cost," in out
    assert main(["cost", "--config", _write(tmp_path), "--rate", "-1"]) == 2
