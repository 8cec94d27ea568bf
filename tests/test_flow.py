from orientkit.flow import Dinic


def test_long_path_network():
    # one augmenting path through all 2000 nodes; a recursive search would
    # pass Python's recursion limit here
    net = Dinic(2000)
    for v in range(1999):
        net.add_edge(v, v + 1, 1)
    assert net.max_flow(0, 1999) == 1
    assert net.min_cut_source_side(0) == {0}


def test_bottleneck_and_min_cut():
    # two routes 0->1->3 and 0->2->3 with bottlenecks 2 and 3
    net = Dinic(4)
    a = net.add_edge(0, 1, 5)
    net.add_edge(1, 3, 2)
    net.add_edge(0, 2, 3)
    net.add_edge(2, 3, 4)
    assert net.max_flow(0, 3) == 5
    assert net.flow_on(a) == 2
    assert net.min_cut_source_side(0) == {0, 1}
