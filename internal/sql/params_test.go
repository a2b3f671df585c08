package sql

import (
	"reflect"
	"strings"
	"testing"
)

// Placeholders parse into Param nodes counted in source order, across
// every clause that accepts expressions.
func TestParseParams(t *testing.T) {
	cases := []struct {
		text   string
		params int
	}{
		{"select count(*) from lineitem", 0},
		{"select count(*) from lineitem where l_quantity < ?", 1},
		{"select sum(l_extendedprice * ?) from lineitem where l_quantity < ? and l_tax < ?", 3},
		{"select sum(l_quantity), l_returnflag from lineitem group by l_returnflag having sum(l_quantity) > ?", 1},
		{"select sum(l_quantity + ?), l_returnflag from lineitem group by l_returnflag order by sum(l_quantity + ?) desc", 2},
	}
	for _, c := range cases {
		stmt, err := Parse(c.text)
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
			continue
		}
		if stmt.Params != c.params {
			t.Errorf("%s: Params=%d, want %d", c.text, stmt.Params, c.params)
		}
	}
}

// A template compiles unbound (no pipeline, no predictions), and
// binding arguments replans it so the bound execution is bit-identical
// — result, profile and raw counters — to compiling the literal text.
func TestBindMatchesLiteralCompile(t *testing.T) {
	d, m := diffDB()
	lit := "select sum(l_extendedprice), count(*) from lineitem where l_quantity < 24"
	tmpl := "select sum(l_extendedprice), count(*) from lineitem where l_quantity < ?"
	cl, err := Compile(d, m, lit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Compile(d, m, tmpl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Params != 1 || ct.Pipeline != nil || ct.Predictions != nil {
		t.Fatalf("template must compile unbound: params=%d pipeline=%v", ct.Params, ct.Pipeline)
	}
	bound, err := ct.Bind([]int64{24})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Engine != cl.Engine {
		t.Errorf("bound engine %s, literal %s", bound.Engine, cl.Engine)
	}
	al, err := cl.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := bound.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !ab.Result.Equal(al.Result) {
		t.Errorf("bound result %v, literal %v", ab.Result, al.Result)
	}
	if !reflect.DeepEqual(ab.Profile, al.Profile) {
		t.Errorf("bound profile differs from literal compile's:\n%+v\n%+v", ab.Profile, al.Profile)
	}
	if !reflect.DeepEqual(ab.Inputs, al.Inputs) {
		t.Errorf("bound counters differ from literal compile's")
	}
	// The template is reusable: a different argument replans and gives a
	// different answer; rebinding the first argument reproduces it.
	wider, err := ct.Bind([]int64{50})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := wider.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if aw.Result.Equal(al.Result) {
		t.Error("binding 50 must select more rows than binding 24")
	}
	again, err := ct.Bind([]int64{24})
	if err != nil {
		t.Fatal(err)
	}
	aa, err := again.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !aa.Result.Equal(al.Result) {
		t.Error("rebinding the same argument must reproduce the answer; the template was mutated")
	}
}

// Bind checks arity, and unbound templates refuse every execution
// entry point with a descriptive error.
func TestBindErrorsAndUnboundGuards(t *testing.T) {
	d, m := diffDB()
	ct, err := Compile(d, m, "select count(*) from lineitem where l_quantity < ?", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Bind(nil); err == nil || !strings.Contains(err.Error(), "wants 1 argument") {
		t.Errorf("zero-arg bind: %v", err)
	}
	if _, err := ct.Bind([]int64{1, 2}); err == nil || !strings.Contains(err.Error(), "wants 1 argument") {
		t.Errorf("two-arg bind: %v", err)
	}
	if _, err := ct.Execute(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("Execute on template: %v", err)
	}
	if _, err := ct.ExecuteThreads(4); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("ExecuteThreads on template: %v", err)
	}
	if _, err := ct.ExecuteFast(4); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("ExecuteFast on template: %v", err)
	}
	if _, err := ct.Analyze(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("Analyze on template: %v", err)
	}
	if !strings.Contains(ct.Explain(), "unbound template") {
		t.Errorf("Explain on template: %q", ct.Explain())
	}
	// Static errors surface at template compile time, not first bind.
	if _, err := Compile(d, m, "select sum(nosuch) from lineitem where l_quantity < ?", Options{}); err == nil {
		t.Error("template with an unknown column must fail to compile")
	}
	if _, err := Compile(d, m, "explain select count(*) from lineitem where l_quantity < ?", Options{}); err == nil || !strings.Contains(err.Error(), "EXPLAIN of a parameterized statement") {
		t.Errorf("EXPLAIN template: %v", err)
	}
	// Binding a parameter-free statement is the identity.
	cl, err := Compile(d, m, "select count(*) from lineitem", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if same, err := cl.Bind(nil); err != nil || same != cl {
		t.Errorf("zero-param bind must return the statement unchanged: %v", err)
	}
}

// Parameterize extracts integer and date literals into `?` templates,
// protects the plan-shaping literal positions, and refuses text that
// should not be templated.
func TestParameterize(t *testing.T) {
	tmpl, args, ok := Parameterize(
		"select sum(l_extendedprice) from lineitem where l_quantity < 24 and l_shipdate < date '1998-09-02'")
	if !ok {
		t.Fatal("expected ok")
	}
	if want := "select sum ( l_extendedprice ) from lineitem where l_quantity < ? and l_shipdate < ?"; tmpl != want {
		t.Errorf("template %q, want %q", tmpl, want)
	}
	if len(args) != 2 || args[0] != 24 {
		t.Errorf("args %v, want [24 <epoch-days>]", args)
	}

	// LIMIT counts and single-literal ORDER BY items stay verbatim:
	// both shape the plan (top-k size, positional sort key).
	tmpl, args, ok = Parameterize(
		"select sum(o_totalprice), o_shippriority from orders where o_totalprice > 1000 group by o_shippriority order by 1 desc limit 5")
	if !ok {
		t.Fatal("expected ok")
	}
	if !strings.Contains(tmpl, "order by 1 desc limit 5") {
		t.Errorf("protected literals were parameterized: %q", tmpl)
	}
	if len(args) != 1 || args[0] != 1000 {
		t.Errorf("args %v, want [1000]", args)
	}

	for _, text := range []string{
		"explain select count(*) from lineitem where l_quantity < 24",
		"select count(*) from lineitem where l_quantity < ?",
		"select $bad from lineitem",
	} {
		if _, _, ok := Parameterize(text); ok {
			t.Errorf("%q must not parameterize", text)
		}
	}
}

// The server's auto-parameterization contract: for representative
// workload texts, compiling the extracted template and binding the
// extracted arguments is indistinguishable — result AND measured
// profile — from compiling the literal text.
func TestParameterizeRoundTrip(t *testing.T) {
	d, m := diffDB()
	texts := []string{
		"select sum(l_extendedprice * l_discount / 100) from lineitem where l_shipdate >= date '1994-01-01' and l_quantity < 24",
		"select sum(o_totalprice), o_shippriority from orders group by o_shippriority having sum(o_totalprice) > 500000 order by 1 desc limit 3",
		"select count(*), sum(l_extendedprice) from lineitem join orders on l_orderkey = o_orderkey where o_totalprice > 150000",
	}
	for _, text := range texts {
		tmpl, args, ok := Parameterize(text)
		if !ok {
			t.Errorf("%q must parameterize", text)
			continue
		}
		cl, err := Compile(d, m, text, Options{})
		if err != nil {
			t.Errorf("%q: %v", text, err)
			continue
		}
		ct, err := Compile(d, m, tmpl, Options{})
		if err != nil {
			t.Errorf("%q template: %v", tmpl, err)
			continue
		}
		bound, err := ct.Bind(args)
		if err != nil {
			t.Errorf("%q bind: %v", tmpl, err)
			continue
		}
		al, err := cl.Execute()
		if err != nil {
			t.Errorf("%q literal exec: %v", text, err)
			continue
		}
		ab, err := bound.Execute()
		if err != nil {
			t.Errorf("%q bound exec: %v", text, err)
			continue
		}
		if bound.Engine != cl.Engine || !ab.Result.Equal(al.Result) || !reflect.DeepEqual(ab.Profile, al.Profile) {
			t.Errorf("%q: bound run diverges from literal (engine %s vs %s, %v vs %v)",
				text, bound.Engine, cl.Engine, ab.Result, al.Result)
		}
	}
}

// Fast mode returns bit-identical results to measured mode at any
// thread count — there is just nothing measured.
func TestExecuteFastMatchesMeasured(t *testing.T) {
	d, m := diffDB()
	texts := []string{
		"select sum(l_extendedprice), count(*) from lineitem where l_discount < 5",
		"select sum(l_quantity), l_returnflag from lineitem group by l_returnflag order by 1 desc limit 2",
		"select count(*), sum(l_extendedprice) from lineitem join orders on l_orderkey = o_orderkey where o_totalprice > 150000",
	}
	for _, engineName := range []string{"typer", "tectorwise"} {
		for _, text := range texts {
			c, err := Compile(d, m, text, Options{Engine: engineName})
			if err != nil {
				t.Fatalf("%s %q: %v", engineName, text, err)
			}
			a, err := c.Execute()
			if err != nil {
				t.Fatalf("%s %q: %v", engineName, text, err)
			}
			for _, threads := range []int{1, 4} {
				r, err := c.ExecuteFast(threads)
				if err != nil {
					t.Fatalf("%s %q fast(%d): %v", engineName, text, threads, err)
				}
				if !r.Equal(a.Result) {
					t.Errorf("%s %q fast(%d) %v, measured %v", engineName, text, threads, r, a.Result)
				}
			}
		}
	}
}
