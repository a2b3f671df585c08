package sql

import (
	"strconv"
	"strings"
)

// Identity is what one lexer pass decides about a statement's text:
// which statement it is, for every cache and counter keyed on that.
type Identity struct {
	// Key is the canonical token spelling: comments stripped, whitespace
	// collapsed to single spaces, keywords and identifiers lowercased,
	// trailing semicolons dropped — and, when Templated, every
	// unprotected integer and date literal replaced by `?`. Textual
	// variants of one query share a Key; queries differing in a column,
	// a clause or (untemplated) a literal do not. Text the lexer rejects
	// keys as its trimmed self behind a NUL marker: a valid statement's
	// Key starts with its first keyword, never "\x00", so rejected text
	// can never collide with — and poison — a valid statement's key. The
	// later parse failure, not the cache, reports the error.
	Key string
	// Args are the literals a Templated Key's placeholders replaced
	// (dates as TPC-H epoch-day offsets), in source order — exactly the
	// arguments Compiled.Bind wants.
	Args []int64
	// Templated reports that Key is a prepared-statement template: it
	// compiles as written, and binding Args reproduces the literal
	// statement. Literal-varied repetitions of one workload statement
	// therefore share one template.
	Templated bool
}

// Identify resolves text's identity with a single lexer pass.
// parameterize asks for the prepared-statement template; it is
// declined (Templated false, Key the plain canonical spelling) for
// text that should not be templated: the lexer rejects it, it already
// contains `?` placeholders (the caller binds those explicitly), it is
// an EXPLAIN (the rendered plan should show the real literals), or a
// literal is malformed. The caller then compiles the original text
// and surfaces its error.
//
// Two literal positions shape the plan itself and are never
// parameterized: the LIMIT row count (it sizes the top-k operator),
// and any ORDER BY item that is a single literal (ORDER BY n is
// positional, and a bare date key binds differently from a number).
func Identify(text string, parameterize bool) Identity {
	toks, err := lexAll(text)
	if err != nil {
		return Identity{Key: "\x00" + strings.TrimSpace(text)}
	}
	if parameterize && templatable(toks) {
		if key, args, ok := spell(toks, true); ok {
			return Identity{Key: key, Args: args, Templated: true}
		}
	}
	key, _, _ := spell(toks, false)
	return Identity{Key: key}
}

// NormalizeSQL is Identify's canonical spelling with every literal
// kept verbatim.
func NormalizeSQL(text string) string { return Identify(text, false).Key }

// Parameterize is Identify's template view: the template, its
// extracted arguments, and whether the text was templated at all.
func Parameterize(text string) (template string, args []int64, ok bool) {
	id := Identify(text, true)
	if !id.Templated {
		return "", nil, false
	}
	return id.Key, id.Args, true
}

// templatable reports whether a lexed statement may be templated:
// not an EXPLAIN, and free of explicit placeholders.
func templatable(toks []token) bool {
	if toks[0].kind == tokKeyword && toks[0].text == "explain" {
		return false
	}
	for _, t := range toks {
		if t.kind == tokSymbol && t.text == "?" {
			return false
		}
	}
	return true
}

// spell renders the canonical spelling of a lexed statement. With
// template set, each integer and date literal outside the protected
// positions becomes a `?` whose value is appended to args, and ok is
// false when such a literal is malformed; otherwise every literal is
// kept verbatim.
func spell(toks []token, template bool) (key string, args []int64, ok bool) {
	var protected map[int]bool
	if template {
		protected = protectedLiterals(toks)
	}
	var b strings.Builder
	b.Grow(len(toks) * 8)
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokEOF || t.kind == tokSymbol && t.text == ";" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case template && t.kind == tokNumber && !protected[i]:
			v, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return "", nil, false
			}
			args = append(args, v)
			b.WriteByte('?')
		case template && t.kind == tokKeyword && t.text == "date" && !protected[i] &&
			i+1 < len(toks) && toks[i+1].kind == tokString:
			dl, err := parseDate(toks[i+1])
			if err != nil {
				return "", nil, false
			}
			args = append(args, dl.Days)
			b.WriteByte('?')
			i++ // the date's string literal is consumed with it
		case t.kind == tokString:
			b.WriteByte('\'')
			b.WriteString(t.text)
			b.WriteByte('\'')
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), args, true
}

// protectedLiterals marks the literal tokens a template must keep
// verbatim: the LIMIT row count, and ORDER BY items that consist of a
// single literal (one number, or one date literal), whose replacement
// would change how the binder interprets the key.
func protectedLiterals(toks []token) map[int]bool {
	protected := map[int]bool{}
	inOrderBy := false
	itemStart := -1
	// protectItem marks tokens [itemStart, end) when they form exactly
	// one literal, ignoring a trailing asc/desc.
	protectItem := func(end int) {
		if itemStart < 0 || end <= itemStart {
			return
		}
		last := end
		if t := toks[last-1]; t.kind == tokKeyword && (t.text == "asc" || t.text == "desc") {
			last--
		}
		n := last - itemStart
		first := toks[itemStart]
		switch {
		case n == 1 && first.kind == tokNumber:
			protected[itemStart] = true
		case n == 2 && first.kind == tokKeyword && first.text == "date" && toks[itemStart+1].kind == tokString:
			protected[itemStart] = true
		}
	}
	depth := 0
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokSymbol {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			case ",":
				if inOrderBy && depth == 0 {
					protectItem(i)
					itemStart = i + 1
				}
			}
			continue
		}
		if t.kind != tokKeyword {
			continue
		}
		switch t.text {
		case "order":
			if i+1 < len(toks) && toks[i+1].kind == tokKeyword && toks[i+1].text == "by" {
				inOrderBy = true
				itemStart = i + 2
				i++
			}
		case "limit":
			if inOrderBy {
				protectItem(i)
				inOrderBy = false
			}
			if i+1 < len(toks) && toks[i+1].kind == tokNumber {
				protected[i+1] = true
			}
		}
	}
	if inOrderBy {
		// The statement ends inside ORDER BY (EOF or ';').
		end := len(toks)
		for end > 0 && (toks[end-1].kind == tokEOF || (toks[end-1].kind == tokSymbol && toks[end-1].text == ";")) {
			end--
		}
		protectItem(end)
	}
	return protected
}
