"""Scenario loading/validation and the command-line front end."""

import json
import pathlib

import pytest

from modnet.cli import main
from modnet.simnet import DeviceDesc, LinkDesc, NodeDesc, Topology
from modnet.scenario import (ScenarioError, load_scenario,
                             load_scenario_file, run_scenario)

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


def load_doc(name):
    return json.loads((SCENARIO_DIR / name).read_text())


@pytest.mark.parametrize("name", ["echo.json", "echo_frag.json",
                                  "border_router.json", "lossy.json",
                                  "offload_echo.json"])
def test_shipped_scenarios_validate(name):
    scenario = load_scenario_file(str(SCENARIO_DIR / name))
    assert scenario.version == 1
    assert scenario.topology.nodes


def test_echo_scenario_round_trip():
    _, stats = run_scenario(load_scenario(load_doc("echo.json")))
    assert stats["sockets"]["a:40000"]["received"] == 1
    assert stats["counters"]["udp_sent"] == 2  # request + echo


def test_lossy_scenario_bookkeeping():
    _, stats = run_scenario(load_scenario(load_doc("lossy.json")))
    counters = stats["counters"]
    assert counters["frames_sent"] == 200
    assert (stats["sockets"]["b:7"]["received"]
            == counters["frames_delivered"])


def test_border_router_forwarded_equals_sent():
    _, stats = run_scenario(load_scenario(load_doc("border_router.json")))
    assert stats["sockets"]["b:7"]["received"] == 5
    assert stats["counters"]["ipv6_forwarded"] == 5


def test_missing_version_pointer():
    doc = load_doc("echo.json")
    del doc["version"]
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert "version" in str(exc.value)


def test_bad_loss_pointer():
    doc = load_doc("echo.json")
    doc["links"][0]["loss"] = 1.5
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert exc.value.pointer == "/links/0/loss"


def test_unknown_workload_node_pointer():
    doc = load_doc("echo.json")
    doc["workload"][0]["node"] = "ghost"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert exc.value.pointer == "/workload/0/node"


def test_bad_ipv6_address_pointer():
    doc = load_doc("echo.json")
    doc["nodes"][0]["address"] = "not-an-address"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert exc.value.pointer == "/nodes/0/address"


def test_bad_send_args_pointer():
    doc = load_doc("echo.json")
    doc["workload"][2]["args"]["size"] = 0
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert exc.value.pointer.startswith("/workload/2/args")


def test_minimal_document_loads_to_the_dataclass_defaults():
    doc = {"version": 1,
           "nodes": [{"name": "a", "modules": ["link", "6lowpan", "ipv6",
                                               "udp"],
                      "devices": [{"addr_short": "000a",
                                   "addr_long": "000000000000000a"}]},
                     {"name": "b", "modules": ["offload"]}],
           "links": [{"a": "a", "b": "b"}]}
    dev = DeviceDesc(addr_short=bytes.fromhex("000a"),
                     addr_long=bytes.fromhex("000000000000000a"))
    assert load_scenario(doc).topology == Topology(
        nodes=[NodeDesc("a", devices=[dev]), NodeDesc("b", offload=True)],
        links=[LinkDesc("a", "b")])


def test_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario_file(str(path))


# -- command line ------------------------------------------------------------

def test_cli_run_ok(capsys):
    assert main(["run", str(SCENARIO_DIR / "echo.json")]) == 0
    assert "delivered" in capsys.readouterr().out


def test_cli_run_determinism(tmp_path):
    traces = []
    for i in range(2):
        path = tmp_path / f"trace{i}.log"
        assert main(["run", str(SCENARIO_DIR / "lossy.json"),
                     "--trace", str(path)]) == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_cli_run_seed_changes_trace(tmp_path):
    traces = []
    for seed in (7, 8):
        path = tmp_path / f"trace{seed}.log"
        assert main(["run", str(SCENARIO_DIR / "lossy.json"),
                     "--seed", str(seed), "--trace", str(path)]) == 0
        traces.append(path.read_bytes())
    assert traces[0] != traces[1]


def test_cli_run_malformed_exit_2(tmp_path, capsys):
    doc = load_doc("echo.json")
    doc["links"][0]["loss"] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "/links/0/loss" in capsys.readouterr().err


def test_cli_run_missing_file_exit_2(capsys):
    assert main(["run", "/nonexistent/echo.json"]) == 2


def test_cli_run_stats_file(tmp_path):
    path = tmp_path / "stats.json"
    assert main(["run", str(SCENARIO_DIR / "echo.json"),
                 "--stats", str(path)]) == 0
    stats = json.loads(path.read_text())
    assert stats["sockets"]["a:40000"]["received"] == 1


def test_cli_run_time_bound():
    assert main(["run", str(SCENARIO_DIR / "echo.json"),
                 "--until", "5"]) == 0


def test_cli_fuzz_clean_and_deterministic(tmp_path, capsys):
    reports = []
    for i in range(2):
        path = tmp_path / f"report{i}.json"
        code = main(["fuzz-enotsup", str(SCENARIO_DIR / "echo.json"),
                     "--ops", "500", "--seed", "3", "--report", str(path)])
        capsys.readouterr()
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["clean"]
    assert report["timeouts"] == []
    assert report["crashes"] == []
    assert report["unknown_key_non_enotsup"] == []
    assert report["enotsup"] > 0


def test_par_run_reaches_quiescence():
    # run_until() with no bound means "until idle" in par mode as in det
    sim, stats = run_scenario(load_scenario(load_doc("echo.json")),
                              mode="par")
    assert not sim.sched.errors
    assert stats["counters"]["udp_delivered"] == 2  # request + echo
    assert stats["sockets"]["a:40000"]["received"] == 1
    assert all(node.pktbuf.used == 0 for node in sim.nodes.values())
