"""Scenario loading/validation and the command-line front end."""

import collections
import copy
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from ipaddress import IPv6Address

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from modnet import scenario
from modnet.cli import main
from modnet.ipv6 import SortedNeighborCache
from modnet.pktbuf import Backend, DynamicBuffer
from modnet.simnet import (DeviceDesc, InvalidTopology, LinkDesc, NodeDesc,
                           RouteDesc, Topology, build)
from modnet.scenario import (ScenarioError, load_scenario,
                             load_scenario_file, run_scenario,
                             validate_document)
from oracles import validate_document_oracle
from topo import (IP_A, IP_R_A, IP_R_B, LONG_A, offload_pair,
                  three_node_router, two_node)

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


def test_scenario_builds_the_dynamic_buffer_and_sorted_cache():
    doc = load_doc("echo.json")
    for nj in doc["nodes"]:
        nj.update(backend="DYNAMIC", neighbor_cache="SORTED")
    sim, stats = run_scenario(load_scenario(doc))
    for node in sim.nodes.values():
        assert isinstance(node.pktbuf, DynamicBuffer)
        assert isinstance(node.modules["ipv6"].module.ncache,
                          SortedNeighborCache)
        assert node.pktbuf.used == 0
    assert stats["sockets"]["a:40000"]["received"] == 1


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


@pytest.mark.parametrize("name,path", [
    ("echo.json", ("nodes", 0, "address")),
    ("echo.json", ("nodes", 1, "neighbors", 0, "addr")),
    ("border_router.json", ("nodes", 0, "routes", 0, "prefix")),
])
def test_a_zoned_address_is_refused_at_its_pointer(name, path):
    doc = load_doc(name)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = "fd00::1%eth0"  # IPv6Address takes it and drops the zone
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert exc.value.pointer == "/" + "/".join(map(str, path))
    assert "zone" in exc.value.message


# accepted: compressed, upper case, "::", IPv4-embedded, leading zeros;
# refused: malformed, IPv4 alone, and zoned (IPv6Address takes a zone)
_ADDRESS_TEXTS = [
    "fd00::1", "FD00::1", "fd00:0:0:1::fe", "::", "::1",
    "2001:0db8:0000:0000:0000:0000:0000:0001", "fd00:0000::0001", "fd00::01",
    "::ffff:192.0.2.1", "64:ff9b::10.0.0.1",
    "fd00::1::2", "fd00:::1", "12345::", "fd00::00001", "g::1", "192.0.2.1",
    "::ffff:192.0.2.256", "::ffff:192.0.02.1", "fd00::1%eth0", "fe80::1%1",
]


@pytest.mark.parametrize("text", _ADDRESS_TEXTS)
def test_cached_address_parse_matches_ipaddress(text):
    try:
        addr = IPv6Address(text)
    except ValueError as exc:
        addr, refusal = None, str(exc)
    else:
        refusal = (f"{text!r} has a zone; an address here has none"
                   if addr.scope_id is not None else None)
    doc = load_doc("echo.json")
    doc["nodes"][1]["neighbors"][0]["addr"] = text
    for _ in range(2):  # a refusal is not cached: the second load refuses
        if refusal is None:
            neighbors = load_scenario(doc).topology.nodes[1].neighbors
            assert neighbors[0][0] == addr.packed
            continue
        with pytest.raises(ScenarioError) as exc:
            load_scenario(doc)
        assert exc.value.message == refusal
        assert exc.value.pointer == "/nodes/1/neighbors/0/addr"


def test_the_address_cache_is_bounded():
    maxsize = scenario._packed_ip.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 1):
        scenario._parse_ip(f"fd00::{n:x}", "address")
    assert scenario._packed_ip.cache_info().currsize == maxsize


def test_each_distinct_address_text_is_parsed_once(monkeypatch):
    parsed = collections.Counter()

    def counting(text):
        parsed[text] += 1
        return IPv6Address(text)
    monkeypatch.setattr(scenario, "IPv6Address", counting)
    scenario._packed_ip.cache_clear()
    doc = load_doc("border_router.json")  # 13 addresses, 5 distinct texts
    for _ in range(2):
        load_scenario(copy.deepcopy(doc))
    assert parsed == dict.fromkeys(["fd00:0:0:1::1", "fd00:0:0:1::fe", "::",
                                    "fd00:0:0:2::fe", "fd00:0:0:2::1"], 1)


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
    out = capsys.readouterr().out
    assert "2 delivered" in out
    assert ", 0 trace lines," in out  # a bare run records nothing


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


@pytest.mark.parametrize("name,at,value,pointer", [
    ("echo.json", "/links/0/b", "zz", "/links/0/b"),  # no such node
    ("echo.json", "/links/0/b", "b:x", "/links/0/b"),  # index not a decimal
    ("echo.json", "/links/0/b", "b:-1", "/links/0/b"),  # negative index
    ("echo.json", "/nodes/0/neighbors/0/link", "000b",
     "/nodes/0/neighbors/0/link"),  # 2-byte neighbour link address
    ("echo.json", "/nodes/0/offload_peer", "b",
     "/nodes/0/offload_peer"),  # peer of a stack node
    ("border_router.json", "/nodes/0/routes/0/iface", 3,
     "/nodes/0/routes/0/iface"),  # a has one device
    ("border_router.json", "/nodes/1/iface_addrs/1/iface", 2,
     "/nodes/1/iface_addrs/1/iface"),  # r has two
    ("border_router.json", "/nodes/1/iface_addrs/1/iface", 0,
     "/nodes/1/iface_addrs/1/iface"),  # one address per interface
    ("echo.json", "/workload/2/args/dst", "ghost",
     "/workload/2/args/dst"),  # neither a node nor an address
    ("echo.json", "/workload/2/t_us", 5,
     "/workload/1/args/port"),  # the send opens a:40000 before the open
    ("echo.json", "/workload/1",
     {"t_us": 10, "node": "b", "op": "open", "args": {"port": 7}},
     "/workload/1/args/port"),  # b:7 is opened twice
    ("echo.json", "/links", [{"a": "a", "b": "b"}] * 2,
     "/links/1"),  # the same link twice
    ("echo.json", "/links", [{"a": "a", "b": "b"}, {"a": "b:0", "b": "a"}],
     "/links/1"),  # the same link twice, reversed
    ("echo.json", "/nodes/0/buffer_capacity", 2**64,
     "/nodes/0/buffer_capacity"),  # a buffer too large to allocate
    ("echo.json", "/links", [{"a": "a", "b": "b"}, {"a": "a", "b": "a:0"}],
     "/links/1"),  # a device linked to itself
    ("echo.json", "/nodes/0/devices", [],
     "/nodes/0/devices"),  # a stack node with no device
    ("offload_echo.json", "/nodes/1/devices",
     [{"addr_short": "000b", "addr_long": "000000000000000b"}],
     "/nodes/1/devices"),  # a radio on an offload node
], ids=["unknown-node", "index-x", "index-minus-1", "short-neighbor-link",
        "peer-on-stack-node", "route-iface", "iface-addr-iface",
        "iface-addr-twice", "unknown-dst", "open-after-send", "second-open",
        "duplicate-link", "duplicate-link-reversed", "huge-buffer",
        "self-link", "no-device", "offload-device"])
def test_cli_topology_defect_exit_2(tmp_path, capsys, name, at, value,
                                    pointer):
    doc = load_doc(name)
    *path, last = at[1:].split("/")
    target = doc
    for key in path:
        target = target[int(key) if key.isdigit() else key]
    target[int(last) if last.isdigit() else last] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    for argv in (["run", str(scenario)],
                 ["fuzz-enotsup", str(scenario), "--ops", "5"]):
        assert main(argv) == 2
        assert pointer in capsys.readouterr().err


def test_send_the_buffer_refuses_is_counted():
    doc = load_doc("echo_frag.json")
    doc["nodes"][0]["buffer_capacity"] = 256  # the 600 B send cannot fit
    _, stats = run_scenario(load_scenario(doc))
    assert stats["counters"]["app_send_drops_nobuf"] == 1
    assert stats["sends"] == 0


def two_dynamic_nodes():
    return two_node(backend=Backend.DYNAMIC)


# (topology builder, path of the field set, its value, pointer refused at)
TOPOLOGY_RULES = [
    (two_node, "nodes/1/name", "a", "/nodes/1/name"),
    (two_node, "nodes/0/address", None, "/nodes/0/address"),
    (two_node, "nodes/1/devices/0/addr_short", b"\x0b", "/nodes/1/devices/0"),
    (two_node, "links/0/b", "b:", "/links/0/b"),
    (two_node, "links/0/b", "b:+0", "/links/0/b"),
    (two_node, "links/0/a", "a:1", "/links/0/a"),
    (two_node, "links/0/loss", 1.5, "/links/0/loss"),
    (two_node, "links/0/loss", float("nan"), "/links/0/loss"),
    (two_node, "links/0/delay_us", -1, "/links/0/delay_us"),
    (offload_pair, "nodes/0/offload_peer", "a", "/nodes/0/offload_peer"),
    (offload_pair, "nodes/1/offload_peer", "zz", "/nodes/1/offload_peer"),
    (three_node_router, "nodes/0/routes/0/iface", 1,
     "/nodes/0/routes/0/iface"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), 2: (IP_R_B, 64)}, "/nodes/1/iface_addrs/1/iface"),
    (three_node_router, "links",
     [LinkDesc("a", "r:0"), LinkDesc("r:1", "b"), LinkDesc("r", "a:0")],
     "/links/2"),
    (three_node_router, "links",
     [LinkDesc("a", "r:0"), LinkDesc("r:1", "r:1")], "/links/1"),
    (two_node, "nodes/1/devices", [], "/nodes/1/devices"),
    # an offload chip replaces the radio: a radio on an offload node would
    # belong to no link, and every frame reaching it would stay there
    (two_node, "nodes/1/offload", True, "/nodes/1/devices"),
    (offload_pair, "nodes/0/devices", [DeviceDesc(b"\x00\x0a", LONG_A)],
     "/nodes/0/devices"),
    (two_node, "nodes/0/backend", "static_arena", "/nodes/0/backend"),
    (two_node, "nodes/1/backend", None, "/nodes/1/backend"),
    (two_node, "nodes/1/neighbor_cache", "NOPE", "/nodes/1/neighbor_cache"),
    (two_node, "nodes/0/neighbor_cache", ["RING"], "/nodes/0/neighbor_cache"),
    (three_node_router, "nodes/0/routes/0/prefix_len", 129,
     "/nodes/0/routes/0/prefix_len"),
    (three_node_router, "nodes/2/routes/0/prefix_len", -1,
     "/nodes/2/routes/0/prefix_len"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), 1: (IP_R_B, 129)}, "/nodes/1/iface_addrs/1/prefix_len"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, -1), 1: (IP_R_B, 64)}, "/nodes/1/iface_addrs/0/prefix_len"),
    # every field of the wrong type or length, where it would otherwise
    # build and drop every send, or raise during the build or the run
    (two_node, "nodes/0/address", IP_A[:15], "/nodes/0/address"),
    (two_node, "nodes/0/address", "fd00::1", "/nodes/0/address"),
    (two_node, "nodes/1/neighbors", [(IP_A[:15], LONG_A)],
     "/nodes/1/neighbors/0/addr"),
    (two_node, "nodes/0/devices/0/addr_long", "abcdefgh",
     "/nodes/0/devices/0"),
    (two_node, "nodes/0/devices/0/addr_short", "ab", "/nodes/0/devices/0"),
    (two_node, "nodes/1/neighbors", [(IP_A, "abcdefgh")],
     "/nodes/1/neighbors/0/link"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), 1: (IP_R_B[:15], 64)}, "/nodes/1/iface_addrs/1/addr"),
    (three_node_router, "nodes/0/routes/0/prefix", bytes(15),
     "/nodes/0/routes/0/prefix"),
    (three_node_router, "nodes/2/routes/0/next_hop", IP_R_B[:15],
     "/nodes/2/routes/0/next_hop"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), True: (IP_R_B, 64)}, "/nodes/1/iface_addrs/1/iface"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), 1.0: (IP_R_B, 64)}, "/nodes/1/iface_addrs/1/iface"),
    (two_node, "nodes/0/buffer_capacity", "2048", "/nodes/0/buffer_capacity"),
    (two_node, "nodes/1/buffer_capacity", True, "/nodes/1/buffer_capacity"),
    (two_node, "links/0/loss", "0.1", "/links/0/loss"),
    (two_node, "links/0/loss", True, "/links/0/loss"),
    (two_node, "links/0/delay_us", "1", "/links/0/delay_us"),
    (two_node, "links/0/delay_us", 1.5, "/links/0/delay_us"),
    # containers of the wrong shape
    (two_node, "links/0/a", 0, "/links/0/a"),
    (two_node, "links/0/b", None, "/links/0/b"),
    (two_node, "nodes/1/neighbors", [(IP_A,)], "/nodes/1/neighbors/0"),
    (two_node, "nodes/0/neighbors", [IP_A], "/nodes/0/neighbors/0"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64), 1: IP_R_B}, "/nodes/1/iface_addrs/1"),
    (three_node_router, "nodes/1/iface_addrs",
     {0: (IP_R_A, 64, 0)}, "/nodes/1/iface_addrs/0"),
    # entries and containers of the wrong type
    (two_node, "nodes/1", None, "/nodes/1"),
    (two_node, "nodes/0/devices", [None], "/nodes/0/devices/0"),
    (three_node_router, "nodes/2/routes", [None], "/nodes/2/routes/0"),
    (two_node, "links", [None], "/links/0"),
    (three_node_router, "nodes/1/iface_addrs", [(IP_R_A, 64)],
     "/nodes/1/iface_addrs"),
    (two_node, "nodes/1/neighbors", None, "/nodes/1/neighbors"),
    (offload_pair, "nodes/0/devices", None, "/nodes/0/devices"),
    (three_node_router, "nodes/0/routes", None, "/nodes/0/routes"),
    # the schema's seed range, and an offload flag that is a bool
    (two_node, "seed", "x", "/seed"),
    (two_node, "seed", True, "/seed"),
    (two_node, "seed", -1, "/seed"),
    (two_node, "seed", 2**64, "/seed"),
    (two_node, "nodes/0/offload", "yes", "/nodes/0/offload"),
    (offload_pair, "nodes/1/offload", 1, "/nodes/1/offload"),
    # names, peers and the top-level containers
    (two_node, "nodes/0/name", ["a"], "/nodes/0/name"),
    (two_node, "nodes/0/name", 5, "/nodes/0/name"),
    (two_node, "nodes/1/name", "", "/nodes/1/name"),
    (offload_pair, "nodes/0/offload_peer", ["b"], "/nodes/0/offload_peer"),
    (two_node, "nodes", None, "/nodes"),
    (two_node, "links", None, "/links"),
    (two_node, "nodes", {0: None}, "/nodes"),
    # the schema's range, for either backend
    (two_node, "nodes/0/buffer_capacity", 255, "/nodes/0/buffer_capacity"),
    (two_node, "nodes/1/buffer_capacity", 65537, "/nodes/1/buffer_capacity"),
    (two_dynamic_nodes, "nodes/0/buffer_capacity", 100,
     "/nodes/0/buffer_capacity"),
]


@pytest.mark.parametrize("make,path,value,pointer", TOPOLOGY_RULES)
def test_hand_built_topology_rules(make, path, value, pointer):
    topology = make()
    *parents, last = path.split("/")
    target = topology
    for key in parents:
        target = target[int(key)] if key.isdigit() else getattr(target, key)
    if last.isdigit():
        target[int(last)] = value
    else:
        setattr(target, last, value)
    with pytest.raises(InvalidTopology) as exc:
        build(topology)
    assert exc.value.pointer == pointer
    assert str(exc.value).startswith(pointer + ": ")


def test_every_description_field_has_a_topology_rule():
    """A field added to a description without a rule in ``check_topology``
    (and a row above) fails here."""
    tested = {path.rsplit("/", 1)[-1] for _, path, _, _ in TOPOLOGY_RULES}
    for desc in (Topology, NodeDesc, DeviceDesc, RouteDesc, LinkDesc):
        missing = {f.name for f in dataclasses.fields(desc)} - tested
        assert not missing, f"{desc.__name__}: {sorted(missing)}"


def test_cli_run_stats_file(tmp_path):
    path = tmp_path / "stats.json"
    assert main(["run", str(SCENARIO_DIR / "echo.json"),
                 "--stats", str(path)]) == 0
    stats = json.loads(path.read_text())
    assert stats["sockets"]["a:40000"]["received"] == 1


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        SCENARIO_DIR.glob("*.json")))
def test_cli_stats_alone_records_what_stats_with_trace_does(name, tmp_path,
                                                            capsys):
    docs = []
    for extra in ([], ["--trace", str(tmp_path / "trace.txt")]):
        path = tmp_path / "stats.json"
        assert main(["run", str(SCENARIO_DIR / name), "--stats", str(path),
                     *extra]) == 0
        docs.append(json.loads(path.read_text()))
    capsys.readouterr()
    assert docs[0]["packets"] and docs[0]["trace_lines"] > 0
    assert docs[0] == docs[1]
    lines = (tmp_path / "trace.txt").read_text().splitlines()
    assert len(lines) == docs[1]["trace_lines"]


def test_cli_run_time_bound():
    assert main(["run", str(SCENARIO_DIR / "echo.json"),
                 "--until", "5"]) == 0


@pytest.mark.parametrize("option,value", [
    ("--seed", "-1"),  # random.Random(-1) would replay seed 1
    ("--until", "-5"),  # would run nothing
    ("--until", "5ms"),
])
def test_cli_run_rejects_a_bad_number_with_usage(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SCENARIO_DIR / "echo.json"), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modnet run")
    assert f"argument {option}: must be an integer >= 0, got {value!r}" in err


def test_cli_fuzz_rejects_a_negative_op_count_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz-enotsup", str(SCENARIO_DIR / "echo.json"), "--ops", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modnet fuzz-enotsup")
    assert "argument --ops: must be an integer >= 0, got '-3'" in err


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


# -- mutated shipped scenarios -------------------------------------------------

SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
MUTATIONS = ("drop", "duplicate", "retype", "range")


def _locations(node, path=()):
    """The path of every value below ``node``, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


def _replacements(kind, value):
    """Values that put ``value`` out of its type or its range."""
    if kind == "retype":
        return [v for v in (None, True, "7", 7, [], {}, [value],
                            float(value) if type(value) is int else 0.5)
                if type(v) is not type(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return [None]
    if isinstance(value, str):
        return ["", "ff" * 17]
    if isinstance(value, float):
        return [-0.5, 1.5]
    # kept small: a capacity is allocated as given
    return [-1, 0, 65536]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_scenario_exits_cleanly(data):
    """Drop, duplicate, retype or put out of range one field of a shipped
    scenario: each command still returns 0, 2 or 3 and raises nothing."""
    doc = load_doc(data.draw(st.sampled_from(SHIPPED)))
    kind = data.draw(st.sampled_from(MUTATIONS))
    paths = [p for p in _locations(doc)
             if kind != "duplicate" or isinstance(p[-1], int)]
    *parents, last = data.draw(st.sampled_from(paths))
    target = doc
    for key in parents:
        target = target[key]
    if kind == "drop":
        del target[last]
    elif kind == "duplicate":
        target.insert(last, copy.deepcopy(target[last]))
    else:
        target[last] = data.draw(
            st.sampled_from(_replacements(kind, target[last])))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        for argv in (["run", str(path), "--until", "200000"],
                     ["fuzz-enotsup", str(path), "--ops", "20"]):
            assert main(argv) in (0, 2, 3)


# -- the compiled check against jsonschema alone ----------------------------

# a -- r -- b, setting every optional field the schema knows except the
# offload ones (offload_echo.json sets those)
ROUTER_DOC = {
    "version": 1, "seed": 2**64 - 1,
    "nodes": [
        {"name": "a", "modules": ["link", "6lowpan", "ipv6", "udp"],
         "devices": [{"addr_short": "000a", "addr_long": "000000000000000a"}],
         "address": "fd00:0:0:1::1",
         "routes": [{"prefix": "::", "prefix_len": 0, "iface": 0,
                     "next_hop": "fd00:0:0:1::fe"}],
         "neighbors": [{"addr": "fd00:0:0:1::fe",
                        "link": "00000000000000e0"}],
         "buffer_capacity": 4096, "backend": "DYNAMIC",
         "neighbor_cache": "SORTED"},
        {"name": "r", "modules": ["udp", "ipv6", "6lowpan", "link"],
         "devices": [{"addr_short": "00e0", "addr_long": "00000000000000e0"},
                     {"addr_short": "00e1", "addr_long": "00000000000000e1"}],
         "address": "fd00:0:0:1::fe",
         "iface_addrs": [{"iface": 0, "addr": "fd00:0:0:1::fe",
                          "prefix_len": 64},
                         {"iface": 1, "addr": "fd00:0:0:2::fe"}],
         "neighbors": [{"addr": "fd00:0:0:1::1", "link": "000000000000000a"},
                       {"addr": "fd00:0:0:2::1", "link": "000000000000000b"}],
         "backend": "STATIC_ARENA", "neighbor_cache": "RING"},
        {"name": "b", "modules": ["link", "6lowpan", "ipv6", "udp"],
         "devices": [{"addr_short": "000b", "addr_long": "000000000000000b"}],
         "address": "fd00:0:0:2::1",
         "routes": [{"prefix": "::", "prefix_len": 0, "iface": 0,
                     "next_hop": "fd00:0:0:2::fe"}],
         "neighbors": [{"addr": "fd00:0:0:2::fe",
                        "link": "00000000000000e1"}]},
    ],
    "links": [{"a": "a", "b": "r:0", "loss": 0.05, "delay_us": 1},
              {"a": "r:1", "b": "b", "loss": 0, "delay_us": 0}],
    "workload": [
        {"t_us": 0, "node": "b", "op": "open",
         "args": {"port": 7, "app": "sink", "queue_capacity": 4}},
        {"t_us": 0, "node": "b", "op": "open", "args": {"port": 9}},
        {"t_us": 5, "node": "a", "op": "send",
         "args": {"src_port": 40000, "dst": "fd00:0:0:2::1", "dst_port": 7,
                  "size": 1192, "count": 2, "interval_us": 0}},
        {"t_us": 10, "node": "a", "op": "send",
         "args": {"src_port": 40001, "dst": "b", "dst_port": 9, "size": 1}},
    ],
}

DOCS = {name: load_doc(name) for name in SHIPPED} | {"router": ROUTER_DOC}


def _wrong_values(value):
    """Values that swap the type of ``value``, put it out of range, break
    its hex, empty it or leave its enum."""
    if type(value) is int:
        return [True, 7.0, "7", None, -1, 0, 129, 255, 65536, 2**64]
    if type(value) is float:
        return [True, 7, "7", None, -0.5, 1.5]
    if type(value) is str:
        return ["", "0g", "abc", "00\n", "bogus", 7, None]
    return [None, "7", [], {}]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(doc):
    """Every single mutation of ``doc``: add an unknown field to an object,
    drop a field, or replace it."""
    yield "add", (), None
    for path in _locations(doc):
        value = _at(doc, path)
        if isinstance(value, dict):
            yield "add", path, None
        yield "drop", path, None
        for new in _wrong_values(value):
            yield "set", path, new


def _apply(doc, mutation):
    kind, path, value = mutation
    if kind == "add":
        _at(doc, path)["extra"] = 1
    elif kind == "drop":
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = value


def _outcome(validate, doc):
    try:
        validate(doc)
    except ScenarioError as exc:
        return "refused", exc.message, exc.pointer
    except Exception as exc:  # any other error, the same on both sides
        return type(exc).__name__, str(exc)
    return "accepted"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_document_meets_the_oracle(data):
    """One to three mutations of a document: it is accepted by both, or
    both refuse it with the same message and pointer."""
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        _apply(doc, data.draw(st.sampled_from(list(_mutations(doc)))))
    assert (_outcome(validate_document, doc)
            == _outcome(validate_document_oracle, doc))


def test_every_single_mutation_of_the_router_document_meets_the_oracle():
    for mutation in _mutations(ROUTER_DOC):
        doc = copy.deepcopy(ROUTER_DOC)
        _apply(doc, mutation)
        assert (_outcome(validate_document, doc)
                == _outcome(validate_document_oracle, doc)), mutation


def test_valid_documents_never_reach_jsonschema(monkeypatch):
    def iter_errors(*args, **kwargs):
        raise AssertionError("jsonschema ran on a valid document")
    monkeypatch.setattr(scenario._jsonschema()[0], "iter_errors",
                        iter_errors)
    for doc in DOCS.values():
        load_scenario(copy.deepcopy(doc))


# run in a fresh interpreter: argv[1] the scenario directory, argv[2] a
# JSON list of refused documents
_LAZY_JSONSCHEMA = """
import json, pathlib, sys
from modnet import simnet
from modnet.scenario import ScenarioError, load_scenario, load_scenario_file
from workloads import WORKLOADS

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    simnet.build(load_scenario_file(str(path)).topology).stop()
for wl in WORKLOADS.values():
    simnet.build(load_scenario(wl.make_round(1, 0).doc).topology).stop()
assert "jsonschema" not in sys.modules, "a valid document loaded jsonschema"

def refusal(validate, doc):
    try:
        validate(doc)
    except ScenarioError as exc:
        return exc.message, exc.pointer

refused = json.loads(sys.argv[2])
got = [refusal(load_scenario, doc) for doc in refused]
assert "jsonschema" in sys.modules
from oracles import validate_document_oracle
assert got == [refusal(validate_document_oracle, doc) for doc in refused], got
print(json.dumps(got))
"""


def test_jsonschema_is_imported_only_to_name_a_refusal():
    root = SCENARIO_DIR.parent
    refused = [load_doc("echo.json"), load_doc("echo.json")]
    refused[0]["nodes"][0]["address"] = 7
    refused[1]["workload"][2]["args"]["size"] = 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / d) for d in ("src", "tests", "perfbench")))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_JSONSCHEMA, str(SCENARIO_DIR),
         json.dumps(refused)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["7 is not of type 'string'", "/nodes/0/address"],
        ["0 is less than the minimum of 1", "/workload/2/args/size"]]


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("schema", [
    sub for top in (scenario.SCHEMA, scenario._OPEN_ARGS,
                    scenario._SEND_ARGS)
    for sub in _subschemas(top)])
def test_the_check_accepts_nothing_jsonschema_refuses(schema):
    check = scenario._predicate(schema)
    validator = scenario._jsonschema()[0](schema)
    values = [v for x in (1, 1.0, "", []) for v in _wrong_values(x)]
    values += [1, 64, 0.0, 1.0, 2**64 - 1, False, "ff", "fd00::1", "link",
               "DYNAMIC", "open", float("nan"), float("inf"), ["udp"],
               [{}], {"port": 7}]
    for value in values:
        assert not check(value) or validator.is_valid(value), value


@pytest.mark.parametrize("schema", [
    {"type": "string", "maxLength": 3},
    {"type": "object", "properties": {"a": {"format": "ipv6"}}},
    {"type": "array", "items": {"type": "object", "patternProperties": {}}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "object", "additionalProperties": True},
    {"enum": ["a", True]},
    {"const": {"a": 1}},
])
def test_a_keyword_without_a_fast_check_fails_to_compile(schema):
    jsonschema.Draft202012Validator.check_schema(schema)  # a real schema
    with pytest.raises(ValueError, match="no fast check"):
        scenario._predicate(schema)
