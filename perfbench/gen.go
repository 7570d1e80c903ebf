package main

import (
	"math/rand"

	"mega/internal/datasets"
	"mega/internal/graph"
)

// sizeClass is one population of the request size mix: a random tree on
// nodes vertices plus extra chords, drawn share times in ten.
type sizeClass struct {
	nodes, extra, share int
}

// sizeMix is the ZINC-sized request mix shared by every serving workload:
// warm-pool hits, fresh topologies and update lineages all draw from it
// with the same weights, 0.6/0.3/0.1.
var sizeMix = []sizeClass{
	{nodes: 32, extra: 6, share: 6},
	{nodes: 96, extra: 18, share: 3},
	{nodes: 224, extra: 40, share: 1},
}

func sizeDeck() *deck {
	var shares []int
	for _, c := range sizeMix {
		shares = append(shares, c.share)
	}
	return newDeck(shares...)
}

// deck deals indices in exact proportion to their shares, reshuffled every
// round: a stratified draw, so a run's mix sits at its weights instead of
// drifting with the seed.
type deck struct {
	cards []int
	next  int
}

func newDeck(shares ...int) *deck {
	d := &deck{}
	for i, n := range shares {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, i)
		}
	}
	return d
}

func (d *deck) draw(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// randomInstance builds one connected undirected graph of the class with
// in-vocabulary features.
func randomInstance(rng *rand.Rand, c sizeClass) datasets.Instance {
	g := graph.RandomTree(rng, c.nodes)
	edges := g.Edges()
	for added := 0; added < c.extra; {
		u, v := rng.Intn(c.nodes), rng.Intn(c.nodes)
		if u == v || g.HasEdge(graph.NodeID(u), graph.NodeID(v)) || hasPair(edges[c.nodes-1:], u, v) {
			continue
		}
		edges = append(edges, orderedEdge(u, v))
		added++
	}
	return withFeatures(rng, graph.MustNew(c.nodes, edges, false))
}

func hasPair(edges []graph.Edge, u, v int) bool {
	e := orderedEdge(u, v)
	for _, x := range edges {
		if x == e {
			return true
		}
	}
	return false
}

func orderedEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{Src: graph.NodeID(u), Dst: graph.NodeID(v)}
}

func withFeatures(rng *rand.Rand, g *graph.Graph) datasets.Instance {
	nf := make([]int32, g.NumNodes())
	for i := range nf {
		nf[i] = int32(rng.Intn(modelConfig.NodeTypes))
	}
	ef := make([]int32, g.NumEdges())
	for i := range ef {
		ef[i] = int32(rng.Intn(modelConfig.EdgeTypes))
	}
	return datasets.Instance{G: g, NodeFeat: nf, EdgeFeat: ef}
}

// poissonArrivals returns open-loop due offsets (in seconds) for a Poisson
// process of the given rate over duration seconds.
func poissonArrivals(rng *rand.Rand, rate, duration float64) []float64 {
	var out []float64
	for t := rng.ExpFloat64() / rate; t < duration; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
