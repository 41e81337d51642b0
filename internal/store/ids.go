package store

// This file is the store's id-level query surface: the hooks the join
// evaluator in internal/query builds on. A join probes the store thousands of
// times per query, so the evaluator works entirely in dictionary ids —
// variables bind to SymbolIDs, probes are IDPatterns, matches are IDTriples —
// and only the final solutions are resolved back to strings through a
// Resolver. The string-level Pattern methods (QueryFunc, Count) are thin
// wrappers over these and the scan cursor of scan.go.

// SymbolID is a dictionary id minted by the store's symbol table. Ids are
// dense, append-only and never reused; they are only meaningful relative to
// the store that minted them.
type SymbolID = uint32

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O SymbolID
}

// IDPattern is a dictionary-encoded triple pattern: a component constrains
// the match only when its Bound flag is set (an unbound component is a
// wildcard, whatever its id field holds).
type IDPattern struct {
	S, P, O                SymbolID
	BoundS, BoundP, BoundO bool
}

// SymbolID returns the dictionary id of a name, with ok reporting whether the
// name has ever been interned. A name that was never interned cannot occur in
// any index, so a pattern bound to it matches nothing.
func (s *Store) SymbolID(name string) (SymbolID, bool) {
	return s.syms.lookup(name)
}

// Resolver resolves SymbolIDs back to names from a lock-free snapshot of the
// symbol table, falling back to the locked path only for ids minted after the
// Resolver was created. Create one per query result set rather than per id.
type Resolver struct {
	r resolver
}

// NewResolver returns a resolver over the store's current dictionary.
func (s *Store) NewResolver() Resolver {
	return Resolver{r: newResolver(s.syms)}
}

// Name resolves one id.
func (r Resolver) Name(id SymbolID) string {
	return r.r.name(id)
}

// encodePattern resolves a string pattern's bound components to ids; ok is
// false when a bound component was never interned (the pattern matches
// nothing).
func (s *Store) encodePattern(p Pattern) (IDPattern, bool) {
	var ip IDPattern
	var ok bool
	if p.Subject != "" {
		if ip.S, ok = s.syms.lookup(p.Subject); !ok {
			return IDPattern{}, false
		}
		ip.BoundS = true
	}
	if p.Predicate != "" {
		if ip.P, ok = s.syms.lookup(p.Predicate); !ok {
			return IDPattern{}, false
		}
		ip.BoundP = true
	}
	if p.Object != "" {
		if ip.O, ok = s.syms.lookup(p.Object); !ok {
			return IDPattern{}, false
		}
		ip.BoundO = true
	}
	return ip, true
}

// IDStats are cheap cardinality statistics for one id pattern: the exact
// match count, and the number of distinct subjects, predicates and objects
// among the matches — exact where an index level exposes it in O(1) (lead
// and middle widths), bounded above by Count where it does not. The planner
// in internal/query divides Count by a distinct figure to estimate how
// selective probing the pattern through that component will be.
type IDStats struct {
	Count     int
	DistinctS int
	DistinctP int
	DistinctO int
}

// StatsID returns cardinality statistics for the id pattern. It runs
// entirely on the indexes, reading set lengths and entry widths; it never
// materializes a triple or resolves a symbol, so it is cheap enough for the
// planner to call once per pattern per query.
func (s *Store) StatsID(p IDPattern) IDStats {
	switch {
	case p.BoundS:
		sh := s.spo.shard(p.S)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		e := sh.m[p.S]
		if e == nil {
			return IDStats{}
		}
		if p.BoundP {
			set := e.find(p.P)
			if set == nil {
				return IDStats{}
			}
			if p.BoundO {
				if set.contains(p.O) {
					return IDStats{Count: 1, DistinctS: 1, DistinctP: 1, DistinctO: 1}
				}
				return IDStats{}
			}
			n := set.len()
			return IDStats{Count: n, DistinctS: 1, DistinctP: 1, DistinctO: n}
		}
		if p.BoundO {
			n := 0
			for i := range e.entries {
				if e.entries[i].trail.contains(p.O) {
					n++
				}
			}
			return IDStats{Count: n, DistinctS: 1, DistinctP: n, DistinctO: 1}
		}
		n := e.size()
		return IDStats{Count: n, DistinctS: 1, DistinctP: len(e.entries), DistinctO: n}
	case p.BoundP:
		sh := s.pos.shard(p.P)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		e := sh.m[p.P]
		if e == nil {
			return IDStats{}
		}
		if p.BoundO {
			set := e.find(p.O)
			if set == nil {
				return IDStats{}
			}
			n := set.len()
			return IDStats{Count: n, DistinctS: n, DistinctP: 1, DistinctO: 1}
		}
		n := e.size()
		return IDStats{Count: n, DistinctS: n, DistinctP: 1, DistinctO: len(e.entries)}
	case p.BoundO:
		sh := s.osp.shard(p.O)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		e := sh.m[p.O]
		if e == nil {
			return IDStats{}
		}
		n := e.size()
		return IDStats{Count: n, DistinctS: len(e.entries), DistinctP: n, DistinctO: 1}
	default:
		st := IDStats{Count: s.Len()}
		for i := range s.spo {
			s.spo[i].mu.RLock()
			st.DistinctS += len(s.spo[i].m)
			s.spo[i].mu.RUnlock()
		}
		for i := range s.pos {
			s.pos[i].mu.RLock()
			st.DistinctP += len(s.pos[i].m)
			s.pos[i].mu.RUnlock()
		}
		for i := range s.osp {
			s.osp[i].mu.RLock()
			st.DistinctO += len(s.osp[i].m)
			s.osp[i].mu.RUnlock()
		}
		return st
	}
}

// CountID returns the exact number of triples matching the id pattern:
// StatsID's count, with the unbound pattern answered by Len instead of a
// walk over every shard's lead keys.
func (s *Store) CountID(p IDPattern) int {
	if !p.BoundS && !p.BoundP && !p.BoundO {
		return s.Len()
	}
	return s.StatsID(p).Count
}
