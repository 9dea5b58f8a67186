import numpy as np
import pytest

from linkmirage import (Graph, TemporalGraphSequence, er_graph, evolving_sequence,
                        planted_partition_graph, ring_of_blocks)


# -- the generators as they were when each pair sampler copied its forbidden set


def reference_sample_pairs(n_left, n_right, count, rng, offset_left=0, offset_right=0,
                           same_set=False, forbidden=None):
    chosen = set(forbidden or ())
    out = []
    while len(out) < count:
        need = count - len(out)
        a = rng.integers(0, n_left, size=2 * need + 4) + offset_left
        b = rng.integers(0, n_right, size=2 * need + 4) + offset_right
        for u, v in zip(a.tolist(), b.tolist()):
            if same_set and u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in chosen:
                continue
            chosen.add(key)
            out.append(key)
            if len(out) == count:
                break
    return out


def reference_ring_of_blocks(n_blocks, block_size, p_in, inter_per_pair, rng, ring_width=3):
    edges = set()
    for b in range(n_blocks):
        base = b * block_size
        total = block_size * (block_size - 1) // 2
        m = int(rng.binomial(total, p_in)) if total else 0
        edges.update(reference_sample_pairs(block_size, block_size, min(m, total), rng,
                                            offset_left=base, offset_right=base,
                                            same_set=True))
    for b in range(n_blocks):
        for d in range(1, ring_width + 1):
            c = (b + d) % n_blocks
            if c == b:
                continue
            edges.update(reference_sample_pairs(block_size, block_size, inter_per_pair, rng,
                                                offset_left=b * block_size,
                                                offset_right=c * block_size,
                                                forbidden=edges))
    return Graph(sorted(edges), vertices=range(n_blocks * block_size))


def reference_planted_partition(sizes, p_in, p_out, rng):
    starts = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for bi, size in enumerate(sizes):
        lo = int(starts[bi])
        total = size * (size - 1) // 2
        m = int(rng.binomial(total, p_in)) if total else 0
        edges += reference_sample_pairs(size, size, min(m, total), rng,
                                        offset_left=lo, offset_right=lo, same_set=True)
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            total = sizes[bi] * sizes[bj]
            m = int(rng.binomial(total, p_out)) if total else 0
            edges += reference_sample_pairs(sizes[bi], sizes[bj], min(m, total), rng,
                                            offset_left=int(starts[bi]),
                                            offset_right=int(starts[bj]))
    return Graph(edges, vertices=range(int(sum(sizes))))


def reference_er(n, p, rng, first_id=0):
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p)) if total else 0
    edges = reference_sample_pairs(n, n, min(m, total), rng, offset_left=first_id,
                                   offset_right=first_id, same_set=True)
    return Graph(edges, vertices=range(first_id, first_id + n))


# -- evolving_sequence as it was before its dead work went


def reference_evolving_sequence(sizes, p_in, p_out, length, overlap, rng, keep_edge=None,
                                new_vertices_per_step=0, churn_blocks=None):
    if not 0.0 < overlap <= 1.0:
        raise ValueError("overlap must lie in (0, 1]")
    sizes = list(sizes)
    g0, blocks = planted_partition_graph(sizes, p_in, p_out, rng)
    if keep_edge is not None:
        u, v = int(keep_edge[0]), int(keep_edge[1])
        g0 = Graph(np.vstack([g0.edges, [[min(u, v), max(u, v)]]]),
                   vertices=g0.vertices)
    block_members = {lab: sorted(mem) for lab, mem in blocks.communities.items()}
    next_id = int(g0.vertices.max()) + 1
    all_labels = sorted(block_members)
    churn_labels = all_labels if churn_blocks is None \
        else [all_labels[i] for i in churn_blocks]
    churn_vertices = set()
    for lab in churn_labels:
        churn_vertices.update(block_members[lab])

    snaps = [g0]
    for _ in range(1, length):
        prev = snaps[-1]
        edge_list = [tuple(e) for e in prev.edges.tolist()]
        protected = None
        if keep_edge is not None:
            protected = (min(int(keep_edge[0]), int(keep_edge[1])),
                         max(int(keep_edge[0]), int(keep_edge[1])))
        removable = [e for e in edge_list
                     if e != protected
                     and (e[0] in churn_vertices or e[1] in churn_vertices)]
        removable_set = set(removable)
        stable = [e for e in edge_list if e not in removable_set]
        n_churn = int(round((1.0 - overlap) * len(edge_list)))
        n_churn = min(n_churn, len(removable))
        drop_idx = set(rng.choice(len(removable), size=n_churn, replace=False).tolist()) \
            if n_churn else set()
        kept = [e for i, e in enumerate(removable) if i not in drop_idx] + stable

        existing = set(kept)
        added = []
        while len(added) < n_churn:
            bi = churn_labels[int(rng.integers(0, len(churn_labels)))]
            intra = rng.random() < (p_in / (p_in + p_out * max(len(all_labels) - 1, 1)))
            mem_a = block_members[bi]
            if intra and len(mem_a) >= 2:
                u, v = rng.choice(len(mem_a), size=2, replace=False)
                cand = (mem_a[int(u)], mem_a[int(v)])
            else:
                bj = all_labels[int(rng.integers(0, len(all_labels)))]
                if bj == bi:
                    continue
                mem_b = block_members[bj]
                cand = (mem_a[int(rng.integers(0, len(mem_a)))],
                        mem_b[int(rng.integers(0, len(mem_b)))])
            cand = (min(cand), max(cand))
            if cand[0] != cand[1] and cand not in existing:
                existing.add(cand)
                added.append(cand)

        vertices = set(int(x) for x in prev.vertices)
        for _ in range(new_vertices_per_step):
            bi = churn_labels[int(rng.integers(0, len(churn_labels)))]
            mem = block_members[bi]
            v_new = next_id
            next_id += 1
            vertices.add(v_new)
            n_attach = max(1, int(rng.integers(1, 4)))
            picks = rng.choice(len(mem), size=min(n_attach, len(mem)), replace=False)
            for pi in np.atleast_1d(picks):
                e = (min(v_new, mem[int(pi)]), max(v_new, mem[int(pi)]))
                existing.add(e)
            block_members[bi] = mem + [v_new]

        snaps.append(Graph(sorted(existing), vertices=sorted(vertices)))
    return TemporalGraphSequence(snaps)


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4, 5, 6, 7, 10, 40])
def test_ring_of_blocks_equals_the_copying_sampler(n_blocks):
    # below 4 blocks a block pair is wired more than once, each time with
    # pairs the earlier wirings did not draw
    for block_size in (4, 9, 25):
        for seed in range(5):
            got = ring_of_blocks(n_blocks, block_size, 0.3, 3, np.random.default_rng(seed))
            want = reference_ring_of_blocks(n_blocks, block_size, 0.3, 3,
                                            np.random.default_rng(seed))
            assert got == want, (n_blocks, block_size, seed)


def test_ring_of_blocks_wires_repeated_pairs_with_new_edges():
    # 2 blocks of 4: the pair (0, 1) is wired 4 times, 3 new edges each time
    g = ring_of_blocks(2, 4, 0.0, 3, np.random.default_rng(0))
    assert g.num_edges == 12 and (g.edges[:, 0] < 4).all() and (g.edges[:, 1] >= 4).all()


@pytest.mark.parametrize("seed", range(5))
def test_planted_partition_and_er_equal_the_copying_sampler(seed):
    for sizes, p_in, p_out in (([8, 8], 0.6, 0.08), ([20, 5, 13], 0.3, 0.05),
                               ([1, 4], 0.5, 0.5)):
        got, blocks = planted_partition_graph(sizes, p_in, p_out, np.random.default_rng(seed))
        assert got == reference_planted_partition(sizes, p_in, p_out,
                                                  np.random.default_rng(seed))
        assert sorted(map(len, blocks.communities.values())) == sorted(sizes)
    for n, p, first_id in ((1, 0.5, 0), (12, 0.3, 0), (30, 0.9, 100)):
        assert er_graph(n, p, np.random.default_rng(seed), first_id) == \
            reference_er(n, p, np.random.default_rng(seed), first_id)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sizes, p_in, p_out, length, overlap, extra", [
    ([8, 8], 0.6, 0.08, 4, 0.8, {}),
    ([12, 6, 10], 0.4, 0.05, 5, 0.7, {"keep_edge": (0, 1)}),
    ([10, 10, 10], 0.3, 0.03, 4, 0.9, {"churn_blocks": [0, 2], "new_vertices_per_step": 2}),
    ([2, 9], 0.5, 0.1, 6, 0.6, {"keep_edge": (3, 0), "churn_blocks": [0],
                                "new_vertices_per_step": 3}),
])
def test_evolving_sequence_equals_the_reference(seed, sizes, p_in, p_out, length, overlap,
                                                extra):
    got = evolving_sequence(sizes, p_in, p_out, length, overlap, np.random.default_rng(seed),
                            **extra)
    want = reference_evolving_sequence(sizes, p_in, p_out, length, overlap,
                                       np.random.default_rng(seed), **extra)
    assert got.snapshots == want.snapshots
