package main

import (
	"fmt"
	"sort"
	"strings"
)

// verdict counts the oracle's findings by kind.  Every finding counts
// as a failed operation.
type verdict map[string]int

func (v verdict) total() int {
	n := 0
	for _, c := range v {
		n += c
	}
	return n
}

func (v verdict) merge(u verdict) {
	for k, c := range u {
		v[k] += c
	}
}

func (v verdict) String() string {
	if v.total() == 0 {
		return "ok"
	}
	var parts []string
	for k, c := range v {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// checkFinal compares every object's value at every replica, read
// after the drain, with the model sum of acknowledged Incs: a lost
// write reads low, a write applied twice reads high.
func checkFinal(sites []int, model map[string]int64, value func(site int, key string) (int64, error)) verdict {
	v := verdict{}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, site := range sites {
			got, err := value(site, k)
			switch {
			case err != nil:
				v["final-read-error"]++
			case got < model[k]:
				v["lost-write"]++
			case got > model[k]:
				v["duplicate-write"]++
			}
		}
	}
	return v
}

// checkSessions checks each session read against what the same session
// had completed before the read started: the value is at least the
// session's acknowledged Incs on the object (read-your-writes) and at
// least every value it read earlier (monotonic reads).
func checkSessions(log []sessEvent) verdict {
	type group struct {
		writeEnds []int64
		reads     []sessEvent
	}
	groups := map[string]*group{}
	for _, e := range log {
		k := fmt.Sprintf("%d/%s", e.sess, e.key)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		if e.write {
			g.writeEnds = append(g.writeEnds, e.end.UnixNano())
		} else {
			g.reads = append(g.reads, e)
		}
	}
	v := verdict{}
	for _, g := range groups {
		sort.Slice(g.writeEnds, func(a, b int) bool { return g.writeEnds[a] < g.writeEnds[b] })
		byEnd := append([]sessEvent(nil), g.reads...)
		sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].end.Before(byEnd[b].end) })
		prefixMax := make([]int64, len(byEnd))
		for i, e := range byEnd {
			prefixMax[i] = e.value
			if i > 0 && prefixMax[i-1] > e.value {
				prefixMax[i] = prefixMax[i-1]
			}
		}
		for _, rd := range g.reads {
			start := rd.start.UnixNano()
			acked := sort.Search(len(g.writeEnds), func(i int) bool { return g.writeEnds[i] >= start })
			if rd.value < int64(acked) {
				v["read-your-writes"]++
			}
			n := sort.Search(len(byEnd), func(i int) bool { return !byEnd[i].end.Before(rd.start) })
			if n > 0 && rd.value < prefixMax[n-1] {
				v["monotonic-read"]++
			}
		}
	}
	return v
}
