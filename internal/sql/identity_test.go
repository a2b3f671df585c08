package sql

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// identityCorpus is every text the identity property is checked over:
// the full differential corpus at its default seed (the generator is
// cheap; only executing the corpus is not), the normalization and
// parameterization cases of the sibling tests, and the forms Identify
// must decline to template.
func identityCorpus() []string {
	d, _ := diffDB()
	var texts []string
	for i := 0; i < diffDefaultN; i++ {
		texts = append(texts, genQuery(d, rand.New(rand.NewSource(diffDefaultSeed+int64(i)))).sql)
	}
	return append(texts,
		"select  count(*)\n\tfrom lineitem",
		"SELECT COUNT(*) FROM Lineitem",
		"select count(*) -- note\nfrom lineitem",
		"select count(*) from lineitem;",
		"select sum(l_quantity + 1) from lineitem",
		"select count(*) from lineitem where l_shipdate < DATE '1994-01-01'",
		"select sum(l_extendedprice) from lineitem where l_quantity < 24 and l_shipdate < date '1998-09-02'",
		"select sum(o_totalprice), o_shippriority from orders where o_totalprice > 1000 group by o_shippriority order by 1 desc limit 5",
		"select o_orderdate, count(*) from orders group by o_orderdate order by date '1995-01-01', 2 limit 3;",
		"select count(*) from orders where o_totalprice != 0 and o_totalprice <> 7 and o_totalprice <= 9",
		// Declined: EXPLAIN, explicit placeholders, malformed literals,
		// text the lexer rejects, nothing at all.
		"explain select count(*) from lineitem where l_quantity < 24",
		"EXPLAIN ANALYZE select count(*) from lineitem where l_quantity < 24",
		"select count(*) from lineitem where l_quantity < ? and l_tax < 3",
		"select count(*) from lineitem where l_quantity < 99999999999999999999",
		"select count(*) from lineitem where l_shipdate < date 'tomorrow'",
		"  select $bad from lineitem  ",
		"select 'unterminated",
		"",
		" ;; ",
	)
}

// identityDigest is the proof that no plan-cache or breaker key moved:
// it is the SHA-256 of every key, argument list and templating decision
// the pre-refactor front end — NormalizeSQL(Parameterize(text)), or
// NormalizeSQL(text) where Parameterize declined — produced for
// identityCorpus, computed by running that composition on the parent
// commit. NormalizeSQL and Parameterize are views of Identify now, so
// comparing them with it text by text would compare Identify with
// itself; only the digest ties today's keys to the old code's.
const identityDigest = "2cc3b8db0f4e75c5e5efe0f5592ec52e3ecf580c5cec939751c246eb52d5293d"

// The single-pass identity must equal the two- and three-pass
// composition it replaced (the digest), and keep the properties the
// key derivation leans on: a template is a fixed point of the canonical
// spelling, a declined text keys as its plain spelling, and the plain
// view never templates.
func TestIdentifyMatchesComposition(t *testing.T) {
	h := sha256.New()
	for _, text := range identityCorpus() {
		id, plain := Identify(text, true), Identify(text, false)
		fmt.Fprintf(h, "%q %v %v\n", id.Key, id.Args, id.Templated)

		if plain.Templated || plain.Args != nil {
			t.Errorf("Identify(%q, false) = %+v, want the plain canonical spelling", text, plain)
		}
		switch {
		case !id.Templated && (id.Key != plain.Key || id.Args != nil):
			t.Errorf("Identify(%q) declined with %+v, want the plain spelling %q and no args", text, id, plain.Key)
		case id.Templated && Identify(id.Key, false).Key != id.Key:
			t.Errorf("template %q is not a fixed point of the canonical spelling (%q)", id.Key, Identify(id.Key, false).Key)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != identityDigest {
		t.Errorf("corpus keys digest %s, want %s: a cache or breaker key moved", got, identityDigest)
	}
}
