"""Inductive miner and Petri net semantics."""
import random
from collections import Counter

import pytest

from alarmsift.alignment import align
from alarmsift.discovery import discover, mine_tree, tree_to_net
from alarmsift.errors import DataError
from alarmsift.petri import (
    MAX_MARKINGS,
    PetriNet,
    Transition,
    check_soundness,
    export_pnml,
    import_pnml,
    workflow_shape_errors,
)

from treegen import random_tree, sample_trace


def test_single_variant_log_gives_sequence():
    net = discover([("a", "b", "c")] * 10)
    assert align(net, ("a", "b", "c")).cost == 0
    # A pure sequence needs no silent transitions and misreads cost extra.
    assert all(t.label is not None for t in net.transitions)
    assert align(net, ("a", "c", "b")).cost > 0


def test_parallel_cut_replays_both_orders():
    net = discover([("a", "b"), ("b", "a")])
    assert align(net, ("a", "b")).cost == 0
    assert align(net, ("b", "a")).cost == 0


def test_handshake_pattern_language():
    trace = ("C_to_S_SYN", "S_to_C_SYN", "C_to_S_ACK", "S_to_C_ACK+PSH", "C_to_S_ACK")
    net = discover([trace] * 5)
    assert align(net, trace).cost == 0


def test_empty_log_gives_trivial_silent_net():
    net = discover([])
    assert workflow_shape_errors(net) == []
    assert align(net, ()).cost == 0
    assert len(net.transitions) == 1 and net.transitions[0].silent


def test_choice_with_skip():
    net = discover([("a",), ()])
    assert align(net, ("a",)).cost == 0
    assert align(net, ()).cost == 0


def test_loop_discovered_with_visible_redo():
    # body a..b with redo r: a b, a b r a b, ...
    log = [("a", "b"), ("a", "b", "r", "a", "b"), ("a", "b", "r", "a", "b", "r", "a", "b")]
    net = discover(log)
    for trace in log:
        assert align(net, trace).cost == 0
    assert align(net, ("a", "b", "r", "a", "b", "r", "a", "b", "r", "a", "b")).cost == 0


def test_discovery_deterministic_under_trace_order():
    log = [("a", "b"), ("b", "a"), ("a", "b", "c"), ("c",)]
    net1 = discover(log)
    net2 = discover(list(reversed(log)))
    assert net1 == net2


def test_unstructured_log_still_replays():
    log = [("a", "b", "a", "b"), ("b", "b", "a")]
    net = discover(log)
    for trace in log:
        assert align(net, trace).cost == 0
    assert align(net, ("b", "a", "a", "a", "b")).cost == 0


def test_tree_to_net_shape_and_soundness_on_random_trees():
    rng = random.Random(41)
    for _ in range(30):
        tree = random_tree(rng, list("abcdef"), max_depth=3)
        net = tree_to_net(tree)
        assert workflow_shape_errors(net) == []
        report = check_soundness(net)
        assert report.bounded and report.sound, report.issues


def _hand_net(transitions, arcs, places=("i", "p", "q", "o")) -> PetriNet:
    return PetriNet(places, transitions, arcs, {"i": 1}, {"o": 1})


@pytest.mark.parametrize("net, issues", [
    # d waits on a place that never gets a token.
    (_hand_net([Transition("a", "a"), Transition("d", "d")],
               [("i", "a"), ("a", "o"), ("q", "d"), ("d", "o")]),
     ["dead transitions: ['d']"]),
    # a leaves a token behind next to the final one.
    (_hand_net([Transition("a", "a")], [("i", "a"), ("a", "o"), ("a", "p")]),
     ["final marking unreachable from the initial marking",
      "improper completion: marking (0, 1, 0, 1) covers the final marking",
      "2 reachable marking(s) cannot reach the final marking"]),
    # Choosing b leads to p, where nothing is enabled.
    (_hand_net([Transition("a", "a"), Transition("b", "b"), Transition("c", "c")],
               [("i", "a"), ("a", "q"), ("q", "c"), ("c", "o"), ("i", "b"), ("b", "p")]),
     ["1 reachable marking(s) cannot reach the final marking"]),
], ids=["dead-transition", "improper-completion", "cannot-finish"])
def test_unsound_nets_are_reported(net, issues):
    report = check_soundness(net)
    assert report.bounded and not report.sound
    assert report.issues == issues


def test_unbounded_generator_net_stops_at_the_cap():
    # gen puts one more token on p each time it fires.
    net = _hand_net([Transition("gen", "g"), Transition("a", "a")],
                    [("i", "gen"), ("gen", "i"), ("gen", "p"), ("i", "a"), ("a", "o")])
    report = check_soundness(net)
    assert not report.bounded and not report.sound
    assert report.issues == [f"exploration cap of {MAX_MARKINGS} markings exceeded"]


def test_rediscovery_fitness_quick():
    rng = random.Random(7)
    for _ in range(10):
        tree = random_tree(rng, list("abcde"), max_depth=3)
        log = [sample_trace(tree, rng) for _ in range(30)]
        net = discover(log)
        assert workflow_shape_errors(net) == []
        for trace in log:
            assert align(net, trace).cost == 0, (str(tree), trace)


def _sequence_net() -> PetriNet:
    return discover([("a", "b", "c")] * 3)


def test_enabled_initial_and_final():
    net = _sequence_net()
    first = net.successors(net.initial_tuple)
    assert [t.label for t, _ in first] == ["a"]
    assert net.successors(net.final_tuple) == []


def test_successors_memo_matches_a_recomputation():
    rng = random.Random(5)
    for _ in range(30):
        net = tree_to_net(random_tree(rng, list("abcd"), max_depth=3))
        seen, stack = {net.initial_tuple}, [net.initial_tuple]
        while stack:
            m = stack.pop()
            edges = net.successors(m)
            assert net.successors(m) is edges
            assert edges == [
                (net.transitions[j], net.fire_index(m, j)) for j in net.enabled_indexes(m)
            ]
            for _, nxt in edges:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)


def test_cold_successors_call_enabled_indexes_and_fire_index(monkeypatch):
    # A traced run counts these two class attributes; a memo miss must reach both.
    calls = Counter()
    for name in ("enabled_indexes", "fire_index"):
        def counted(self, *args, _original=getattr(PetriNet, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(PetriNet, name, counted)
    net = _sequence_net()
    net.successors(net.initial_tuple)
    assert calls == {"enabled_indexes": 1, "fire_index": 1}
    net.successors(net.initial_tuple)
    assert calls == {"enabled_indexes": 1, "fire_index": 1}


def test_fire_moves_token_and_rejects_disabled():
    net = _sequence_net()
    ((t_a, m1),) = net.successors(net.initial_tuple)
    assert t_a.label == "a"
    assert sum(m1) == 1 and m1 != net.initial_tuple


def test_flower_marking_enables_all_loop_bodies():
    # Rotations of a cycle defeat all four cuts, forcing the flower model.
    net = discover([("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a")])
    m = net.initial_tuple
    # Step through the silent enter/body transitions to the loop's hub place.
    for _ in range(2):
        silent = [nxt for t, nxt in net.successors(m) if t.silent]
        m = silent[0]
    labels = {t.label for t, _ in net.successors(m) if t.label}
    assert labels == {"a", "b", "c"}


def test_silent_one_in_one_out_preserves_token_count():
    net = discover([("a",), ()])  # xor with a tau branch
    m = net.initial_tuple
    silent = [nxt for t, nxt in net.successors(m) if t.silent]
    assert silent
    assert sum(silent[0]) == sum(m)


def test_pnml_round_trip(tmp_path):
    net = discover([("a", "b"), ("b", "a"), ("a", "b", "r", "a", "b")])
    path = tmp_path / "net.pnml"
    export_pnml(net, path)
    loaded = import_pnml(path)
    assert loaded == net
    export_pnml(loaded, tmp_path / "net2.pnml")
    assert (tmp_path / "net.pnml").read_bytes() == (tmp_path / "net2.pnml").read_bytes()


def test_pnml_export_is_deterministic(tmp_path):
    log = [("a", "b", "c"), ("a", "c", "b")]
    export_pnml(discover(log), tmp_path / "one.pnml")
    export_pnml(discover(list(reversed(log))), tmp_path / "two.pnml")
    assert (tmp_path / "one.pnml").read_bytes() == (tmp_path / "two.pnml").read_bytes()


def test_mine_tree_single_activity_and_empty_handling():
    assert str(mine_tree([("a",), ("a",)])) == "a"
    tree = mine_tree([()])
    assert tree.is_leaf and tree.label is None


def test_invalid_net_construction_rejected():
    with pytest.raises(DataError):
        PetriNet(["p"], [Transition("p", "x")], [], {"p": 1}, {"p": 1})
    with pytest.raises(DataError):
        PetriNet(["p1", "p2"], [Transition("t")], [("p1", "p2")], {"p1": 1}, {"p2": 1})
