package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dataformat"
)

func TestParseDistrPolicy(t *testing.T) {
	cases := map[string]DistrPolicy{
		"cyclic": Cyclic, "roundRobin": Cyclic, "round_robin": Cyclic,
		"block":          Block,
		"graphVertexCut": GraphVertexCut, "hybrid": GraphVertexCut,
	}
	for in, want := range cases {
		got, err := ParseDistrPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseDistrPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseDistrPolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDistrPolicyString(t *testing.T) {
	for _, p := range []DistrPolicy{Cyclic, Block, GraphVertexCut} {
		back, err := ParseDistrPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip of %v failed", p)
		}
	}
}

func TestHashValueRangeAndStability(t *testing.T) {
	v := dataformat.StrVal("vertex-17")
	first := HashValue(v, 7)
	for i := 0; i < 10; i++ {
		if got := HashValue(v, 7); got != first {
			t.Fatal("HashValue not stable")
		}
	}
	if first < 0 || first >= 7 {
		t.Fatalf("HashValue out of range: %d", first)
	}
	// Ints and their decimal strings hash identically (text and binary
	// inputs partition the same).
	if HashValue(dataformat.IntVal(42), 13) != HashValue(dataformat.StrVal("42"), 13) {
		t.Fatal("numeric and string forms hash differently")
	}
}

func TestHashValueRangeProperty(t *testing.T) {
	f := func(s string, nRaw uint8) bool {
		n := int(nRaw%31) + 1
		h := HashValue(dataformat.StrVal(s), n)
		return h >= 0 && h < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitConditionEval(t *testing.T) {
	cases := []struct {
		op   string
		key  int64
		want bool
	}{
		{">=", 200, true}, {">=", 199, false},
		{">", 200, false}, {">", 201, true},
		{"<=", 200, true}, {"<=", 201, false},
		{"<", 199, true}, {"<", 200, false},
		{"==", 200, true}, {"==", 1, false},
		{"!=", 1, true}, {"!=", 200, false},
		{"??", 200, false}, // unknown operator never matches
	}
	for _, c := range cases {
		cond := SplitCondition{Op: c.op, Threshold: 200}
		if got := cond.Eval(c.key); got != c.want {
			t.Errorf("{%s,200}.Eval(%d) = %v, want %v", c.op, c.key, got, c.want)
		}
	}
}

func TestParseSplitPolicyPaperSyntax(t *testing.T) {
	// Fig. 10: value="{>=, $threshold},{<,$threshold}" with threshold=4
	// resolved.
	conds, err := ParseSplitPolicy("{>=, 4},{<,4}")
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != 2 {
		t.Fatalf("got %d conditions", len(conds))
	}
	if conds[0].Op != ">=" || conds[0].Threshold != 4 {
		t.Fatalf("cond 0 = %+v", conds[0])
	}
	if conds[1].Op != "<" || conds[1].Threshold != 4 {
		t.Fatalf("cond 1 = %+v", conds[1])
	}
	if conds[0].String() != "{>=,4}" {
		t.Fatalf("String() = %q", conds[0].String())
	}
}

func TestParseSplitPolicyErrors(t *testing.T) {
	for _, s := range []string{
		"", "nonsense", "{>=}", "{>=,x}", "{~,4}", "{>=,4", ",,,",
	} {
		if _, err := ParseSplitPolicy(s); err == nil {
			t.Errorf("ParseSplitPolicy(%q) succeeded", s)
		}
	}
}

func TestParseSplitPolicyWhitespaceTolerant(t *testing.T) {
	conds, err := ParseSplitPolicy("  {>=, 200} , {<, 200}  ")
	if err != nil || len(conds) != 2 {
		t.Fatalf("conds = %v, %v", conds, err)
	}
}

// TestPlaceIndexBased pins the two stride-permutation placements: cyclic
// stripes g mod np, and block cuts 10 entries over 4 partitions at the
// lo = N*p/np boundaries (0,2,5,7), i.e. sizes 2,3,2,3.
func TestPlaceIndexBased(t *testing.T) {
	want := map[DistrPolicy][]int{
		Cyclic: {0, 1, 2, 3, 0, 1, 2, 3, 0, 1},
		Block:  {0, 0, 1, 1, 1, 2, 2, 3, 3, 3},
	}
	for policy, parts := range want {
		if !policy.IndexBased() {
			t.Errorf("%v is not index-based", policy)
		}
		for g, w := range parts {
			got, err := policy.Place(4, int64(g), int64(len(parts)), Row{}, nil)
			if err != nil || got != w {
				t.Errorf("%v.Place(g=%d) = %d, %v; want %d", policy, g, got, err, w)
			}
		}
	}
	for _, p := range []DistrPolicy{GraphVertexCut, Balanced, Auto} {
		if p.IndexBased() {
			t.Errorf("%v reported index-based", p)
		}
	}
}

// TestPlaceVertexCut checks that a packed entry is placed by its group key
// and a flat row by its first column, and that the policies without a
// per-entry rule refuse.
func TestPlaceVertexCut(t *testing.T) {
	key := dataformat.Value{Int: 17}
	row := Row{Values: []dataformat.Value{key, {Int: 99}}}
	group := &Group{Key: key, Rows: []Row{{Values: []dataformat.Value{{Int: 5}}}}}
	for _, tc := range []struct {
		row   Row
		group *Group
	}{{row, nil}, {Row{}, group}} {
		got, err := GraphVertexCut.Place(7, 3, 10, tc.row, tc.group)
		if err != nil || got != HashValue(key, 7) {
			t.Errorf("Place = %d, %v; want %d", got, err, HashValue(key, 7))
		}
	}
	for _, p := range []DistrPolicy{Balanced, Auto} {
		if _, err := p.Place(4, 0, 1, row, nil); err == nil {
			t.Errorf("%v placed an entry on its own", p)
		}
	}
}

func TestSplitRouteFirstMatch(t *testing.T) {
	j := &SplitJob{ID: "s", Branches: []SplitBranch{
		{Name: "high", Condition: SplitCondition{Op: ">=", Threshold: 10}},
		{Name: "mid", Condition: SplitCondition{Op: ">=", Threshold: 5}},
	}}
	for key, want := range map[int64]int{12: 0, 10: 0, 7: 1, 5: 1} {
		if got, err := j.Route(key); err != nil || got != want {
			t.Errorf("Route(%d) = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := j.Route(4); err == nil {
		t.Error("key matching no condition was routed")
	}
}
