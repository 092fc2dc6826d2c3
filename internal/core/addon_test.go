package core

import (
	"testing"

	"repro/internal/dataformat"
)

func addonRows() []Row {
	return []Row{intRow(1, 10), intRow(2, 30), intRow(3, 20)}
}

func TestAddOnRegistry(t *testing.T) {
	for _, name := range []string{"count", "max", "min", "mean", "sum"} {
		a, err := NewAddOn(name)
		if err != nil {
			t.Fatalf("NewAddOn(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("Name() = %q", a.Name())
		}
	}
	if _, err := NewAddOn("median"); err == nil {
		t.Error("unknown add-on accepted")
	}
	names := AddOnNames()
	if len(names) < 5 {
		t.Errorf("AddOnNames() = %v", names)
	}
}

func TestRegisterAddOnDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterAddOn("count", func() AddOn { return countAddOn{} })
}

func TestRegisterCustomAddOn(t *testing.T) {
	RegisterAddOn("test_first", func() AddOn { return firstAddOn{} })
	// Unregister so the test repeats under -count>1.
	t.Cleanup(func() { delete(addOnRegistry, "test_first") })
	a, err := NewAddOn("test_first")
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Compute(addonRows(), 1)
	if err != nil || v.Int != 10 {
		t.Fatalf("custom add-on = %v, %v", v, err)
	}
}

// firstAddOn is a user-defined add-on used by the registration test.
type firstAddOn struct{}

func (firstAddOn) Name() string     { return "test_first" }
func (firstAddOn) NeedsValue() bool { return true }
func (firstAddOn) Compute(rows []Row, valueIdx int) (dataformat.Value, error) {
	return rows[0].Values[valueIdx], nil
}

func TestCount(t *testing.T) {
	a, _ := NewAddOn("count")
	if a.NeedsValue() {
		t.Error("count should not need a value column")
	}
	v, err := a.Compute(addonRows(), -1)
	if err != nil || v.Int != 3 {
		t.Fatalf("count = %v, %v", v, err)
	}
	if v, _ := a.Compute(nil, -1); v.Int != 0 {
		t.Fatalf("count of empty = %v", v)
	}
}

func TestMaxMinSumMean(t *testing.T) {
	cases := map[string]int64{"max": 30, "min": 10, "sum": 60, "mean": 20}
	for name, want := range cases {
		a, _ := NewAddOn(name)
		if !a.NeedsValue() {
			t.Errorf("%s should need a value column", name)
		}
		v, err := a.Compute(addonRows(), 1)
		if err != nil || v.Int != want {
			t.Errorf("%s = %v, %v; want %d", name, v, err, want)
		}
	}
}

func TestMeanTruncates(t *testing.T) {
	a, _ := NewAddOn("mean")
	rows := []Row{intRow(0, 1), intRow(0, 2)}
	v, err := a.Compute(rows, 1)
	if err != nil || v.Int != 1 {
		t.Fatalf("mean(1,2) = %v, %v; want integer 1", v, err)
	}
}

func TestAggregatesRejectEmptyAndBadColumns(t *testing.T) {
	for _, name := range []string{"max", "min", "mean"} {
		a, _ := NewAddOn(name)
		if _, err := a.Compute(nil, 1); err == nil {
			t.Errorf("%s of empty group succeeded", name)
		}
	}
	for _, name := range []string{"max", "min", "mean", "sum"} {
		a, _ := NewAddOn(name)
		if _, err := a.Compute(addonRows(), -1); err == nil {
			t.Errorf("%s with no value column succeeded", name)
		}
		if _, err := a.Compute(addonRows(), 99); err == nil {
			t.Errorf("%s with out-of-range column succeeded", name)
		}
	}
}

func TestAggregatesRejectNonNumeric(t *testing.T) {
	rows := []Row{{Values: []dataformat.Value{dataformat.StrVal("abc")}}}
	for _, name := range []string{"max", "sum"} {
		a, _ := NewAddOn(name)
		if _, err := a.Compute(rows, 0); err == nil {
			t.Errorf("%s over non-numeric column succeeded", name)
		}
	}
}

func TestSumEmptyIsZero(t *testing.T) {
	a, _ := NewAddOn("sum")
	v, err := a.Compute(nil, 0)
	if err != nil || v.Int != 0 {
		t.Fatalf("sum of empty = %v, %v", v, err)
	}
}
