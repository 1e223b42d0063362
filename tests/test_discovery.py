"""Inductive miner and Petri net semantics."""
import random
import re
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
    reachable,
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
        assert check_soundness(net) == []


def test_mined_nets_are_sound_and_replay_random_logs():
    # Random logs, unlike traces sampled from a tree, drive the miner through
    # every cut and the flower fall-through.
    rng = random.Random(14)
    for _ in range(150):
        labels = "abcdef"[:rng.randint(1, 6)]
        log = [tuple(rng.choice(labels) for _ in range(rng.randint(0, 8)))
               for _ in range(rng.randint(1, 8))]
        net = discover(log)
        assert workflow_shape_errors(net) == []
        assert check_soundness(net) == []
        for trace in set(log):
            assert align(net, trace).cost == 0, (log, trace)


def test_reachable_equals_a_warshall_closure():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 8)
        # Random arcs, so cycles and self-loops occur.
        succ = {a: [b for b in range(n) if rng.random() < 0.25] for a in range(n)}
        closure = [[b in succ[a] for b in range(n)] for a in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    closure[i][j] = closure[i][j] or (closure[i][k] and closure[k][j])
        start = rng.sample(range(n), rng.randint(0, n))
        expected = set(start) | {b for a in start for b in range(n) if closure[a][b]}
        assert reachable(start, succ.__getitem__) == expected
        assert reachable([], succ.__getitem__) == set()


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
    assert net.reachability().bounded
    assert check_soundness(net) == issues


def _generator_net() -> PetriNet:
    # gen puts one more token on p each time it fires.
    return _hand_net([Transition("gen", "g"), Transition("a", "a")],
                     [("i", "gen"), ("gen", "i"), ("gen", "p"), ("i", "a"), ("a", "o")])


def test_unbounded_generator_net_stops_at_the_cap():
    net = _generator_net()
    graph = net.reachability()
    assert not graph.bounded and graph.markings == () and graph.final is None
    assert check_soundness(net) == [f"exploration cap of {MAX_MARKINGS} markings exceeded"]


def test_align_rejects_an_unbounded_net():
    with pytest.raises(DataError, match=f"cap of {MAX_MARKINGS} markings"):
        align(_generator_net(), ("a",))


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
    graph = net.reachability()
    assert graph.markings[0] == net.marking_tuple(net.initial_marking)
    assert [t.label for t, _ in graph.edges[0]] == ["a"]
    assert graph.markings[graph.final] == net.marking_tuple(net.final_marking)
    assert graph.edges[graph.final] == ()


def test_reachability_edges_match_a_recomputation():
    rng = random.Random(5)
    for _ in range(30):
        net = tree_to_net(random_tree(rng, list("abcd"), max_depth=3))
        graph = net.reachability()
        assert graph.bounded and graph.final is not None
        assert len(set(graph.markings)) == len(graph.markings) == len(graph.edges)
        for m, edges in zip(graph.markings, graph.edges):
            assert [(t, graph.markings[k]) for t, k in edges] == [
                (net.transitions[j], net.fire_index(m, j)) for j in net.enabled_indexes(m)
            ]


def test_reachability_is_explored_once(monkeypatch):
    # A traced run counts these two class attributes.
    calls = Counter()
    for name in ("enabled_indexes", "fire_index"):
        def counted(self, *args, _original=getattr(PetriNet, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(PetriNet, name, counted)
    net = discover([("a", "b"), ("b", "a")])
    graph = net.reachability()
    expected = {
        "enabled_indexes": len(graph.markings),
        "fire_index": sum(len(edges) for edges in graph.edges),
    }
    assert calls == expected
    assert net.reachability() is graph
    align(net, ("b", "a", "c"))
    assert calls == expected


def test_fire_moves_token_and_rejects_disabled():
    net = _sequence_net()
    graph = net.reachability()
    ((t_a, k),) = graph.edges[0]
    assert t_a.label == "a"
    assert sum(graph.markings[k]) == 1 and k != 0


def test_flower_marking_enables_all_loop_bodies():
    # Rotations of a cycle defeat all four cuts, forcing the flower model.
    net = discover([("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a")])
    graph = net.reachability()
    m = 0
    # Step through the silent enter/body transitions to the loop's hub place.
    for _ in range(2):
        m = next(k for t, k in graph.edges[m] if t.silent)
    labels = {t.label for t, _ in graph.edges[m] if t.label}
    assert labels == {"a", "b", "c"}


def test_silent_one_in_one_out_preserves_token_count():
    net = discover([("a",), ()])  # xor with a tau branch
    graph = net.reachability()
    silent = [k for t, k in graph.edges[0] if t.silent]
    assert silent
    assert sum(graph.markings[silent[0]]) == sum(graph.markings[0])


def test_pnml_round_trip(tmp_path):
    rng = random.Random(18)
    nets = [discover([("a", "b"), ("b", "a"), ("a", "b", "r", "a", "b")])]
    nets += [tree_to_net(random_tree(rng, ["a", "b", "c", "d"])) for _ in range(40)]
    for net in nets:
        export_pnml(net, tmp_path / "net.pnml")
        loaded = import_pnml(tmp_path / "net.pnml")
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
    t = [Transition("t", "x")]
    cases = [
        (["p", "p"], t, [], "duplicate place or transition ids"),
        (["p"], [Transition("t"), Transition("t", "x")], [], "duplicate place or transition ids"),
        (["p"], [Transition("p", "x")], [], "place and transition ids must be disjoint"),
        (["p", "q"], t, [("p", "q")], "arc (p, q) is not place<->transition"),
        (["p"], [Transition("t"), Transition("u")], [("t", "u")],
         "arc (t, u) is not place<->transition"),
        (["p"], t, [("p", "nowhere")], "arc (p, nowhere) is not place<->transition"),
        (["p"], t, [("p", "t"), ("t", "p"), ("t", "p")], "arc (t, p) is repeated"),
        (["p"], t, [("p", "t"), ("p", "t")], "arc (p, t) is repeated"),
    ]
    for places, transitions, arcs, message in cases:
        with pytest.raises(DataError, match=re.escape(message)):
            PetriNet(places, transitions, arcs, {"p": 1}, {"p": 1})
    for initial, final in (({"q": 1}, {"p": 1}), ({"p": 1}, {"q": 1})):
        with pytest.raises(DataError, match="marking references unknown place q"):
            PetriNet(["p"], t, [("p", "t")], initial, final)
