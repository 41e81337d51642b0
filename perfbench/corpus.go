package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/workload"
)

// The corpus is the paper's §4 setting at scale: a class hierarchy asserted
// as subClassOf triples, instances typed with one of its classes and located
// at a site, and sites grouped into regions. The hierarchy's shape is fixed
// (hierarchySeed) so every seed serves the same classes with the same
// closure sizes; the seed draws the instances and the operation sequence.
const (
	hierarchySeed = 11
	numClasses    = 120
	maxParents    = 2
	numSites      = 89
	numRegions    = 7

	predType      = store.TypePredicate
	predLocated   = "locatedIn"
	predPartOf    = "partOf"
	predLinks     = "linksTo"
	predSubClass  = reason.SubClassOfPredicate
	instPrefix    = "inst-"
	writtenPrefix = "w-"
)

// hierarchy is the fixed class hierarchy and its closure, computed by the
// benchmark from the asserted subClassOf triples alone: the answer oracle
// never asks the program under test.
type hierarchy struct {
	nodes   []string // defined classes class-0..class-N first, then primitive markers
	nodeIdx map[string]int
	anc     [][]int // anc[n]: n itself and every node it is subsumed by, ascending
	sub     []store.Triple
	order   []int // defined classes by popularity rank: most specific first
}

func newHierarchy() (*hierarchy, error) {
	tb := workload.RandomHierarchyTBox(rand.New(rand.NewSource(hierarchySeed)),
		workload.HierarchyParams{Classes: numClasses, MaxParents: maxParents})
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		return nil, fmt.Errorf("classifying the benchmark hierarchy: %w", err)
	}
	h := &hierarchy{nodeIdx: map[string]int{}, sub: reason.OntologyTriples(oi)}
	add := func(name string) int {
		if i, ok := h.nodeIdx[name]; ok {
			return i
		}
		h.nodeIdx[name] = len(h.nodes)
		h.nodes = append(h.nodes, name)
		return len(h.nodes) - 1
	}
	for i := 0; i < numClasses; i++ {
		add(workload.ClassName(i))
	}
	edges := map[int][]int{}
	for _, t := range h.sub {
		s, o := add(t.Subject), add(t.Object)
		edges[s] = append(edges[s], o)
	}
	h.anc = make([][]int, len(h.nodes))
	for n := range h.nodes {
		seen := map[int]bool{n: true}
		stack := []int{n}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range edges[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		for y := range seen {
			h.anc[n] = append(h.anc[n], y)
		}
		sort.Ints(h.anc[n])
	}
	for c := numClasses - 1; c >= 0; c-- {
		h.order = append(h.order, c)
	}
	return h, nil
}

// isA reports whether defined class c is n or one of its ancestors.
func (h *hierarchy) isA(n, c int) bool {
	a := h.anc[n]
	i := sort.SearchInts(a, c)
	return i < len(a) && a[i] == c
}

// corpus is one seed's instances over the fixed hierarchy.
type corpus struct {
	h       *hierarchy
	class   []int32 // class[i]: the defined class inst-i is asserted to have
	site    []int32 // site[i]: where inst-i is located
	links   int     // linksTo triples per instance (bulk for cold-boot)
	members [][]int32
}

// newCorpus draws instances until the asserted corpus holds about asserted
// triples: the hierarchy, the site→region triples and, per instance, one
// type, one locatedIn and links linksTo triples.
func newCorpus(h *hierarchy, seed int64, asserted, links int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	n := (asserted - len(h.sub) - numSites) / (2 + links)
	if n < 1 {
		n = 1
	}
	c := &corpus{h: h, class: make([]int32, n), site: make([]int32, n), links: links}
	c.members = make([][]int32, numClasses)
	// Classes and sites are dealt out evenly and the seed shuffles who gets
	// which, so every seed's corpus has the same class sizes and the same
	// inferred closure: seeds vary the data, not the amount of work.
	for j, i := range rng.Perm(n) {
		c.class[i] = int32(j % numClasses)
	}
	for j, i := range rng.Perm(n) {
		c.site[i] = int32(j % numSites)
	}
	for i := range c.class {
		for _, a := range h.anc[c.class[i]] {
			if a < numClasses {
				c.members[a] = append(c.members[a], int32(i))
			}
		}
	}
	return c
}

func siteName(k int32) string   { return fmt.Sprintf("site-%d", k) }
func regionOf(k int32) int32    { return k % numRegions }
func regionName(r int32) string { return fmt.Sprintf("region-%d", r) }
func instName(i int32) string   { return fmt.Sprintf("%s%d", instPrefix, i) }

// linkTarget is the deterministic j-th linksTo object of inst-i.
func (c *corpus) linkTarget(i int32, j int) int32 {
	return int32((int64(i)*7919 + int64(j)*104729 + 1) % int64(len(c.class)))
}

// size is the number of asserted triples the corpus emits.
func (c *corpus) size() int {
	return len(c.h.sub) + numSites + len(c.class)*(2+c.links)
}

// each yields every asserted triple: hierarchy, sites, then instances.
func (c *corpus) each(yield func(store.Triple)) {
	for _, t := range c.h.sub {
		yield(t)
	}
	for k := int32(0); k < numSites; k++ {
		yield(store.Triple{Subject: siteName(k), Predicate: predPartOf, Object: regionName(regionOf(k))})
	}
	for i := range c.class {
		s := instName(int32(i))
		yield(store.Triple{Subject: s, Predicate: predType, Object: c.h.nodes[c.class[i]]})
		yield(store.Triple{Subject: s, Predicate: predLocated, Object: siteName(c.site[i])})
		for j := 0; j < c.links; j++ {
			yield(store.Triple{Subject: s, Predicate: predLinks, Object: instName(c.linkTarget(int32(i), j))})
		}
	}
}

// writeSnapshot writes the corpus in store.Snapshot's line format, the
// format ontoserve -annotations reads.
func (c *corpus) writeSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	var err error
	c.each(func(t store.Triple) {
		if err == nil {
			err = enc.Encode(t)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// joinCount is the oracle's row count for ?x type C . ?x locatedIn ?s .
// ?s partOf R.
func (c *corpus) joinCount(class, region int32) int {
	n := 0
	for _, i := range c.members[class] {
		if regionOf(c.site[i]) == region {
			n++
		}
	}
	return n
}
