package tracker

import (
	"encoding/json"
	"fmt"
	"sync"

	"chex86/internal/core"
)

// RuleExport is the JSON-marshalable form of one rule-database entry.
// Propagate closures cannot be serialized, so Propagation carries a
// behavioral classification obtained by sampling the closure over
// representative PID pairs — the same technique the static pointer-flow
// analyzer (internal/ptrflow) uses to abstract the database.
type RuleExport struct {
	Name        string `json:"name"`
	Uop         string `json:"uop"`
	Alu         string `json:"alu,omitempty"`
	Mode        string `json:"mode"`
	Example     string `json:"example"`
	Semantics   string `json:"semantics"`
	CExample    string `json:"c_example,omitempty"`
	Propagation string `json:"propagation"`
}

// Propagation classes.
const (
	// PropStructural: no Propagate closure; the engine handles the rule
	// structurally (LD consults the alias machinery, ST updates it).
	PropStructural = "structural"
	// PropConstWild: the destination is always tagged wild (MOVI).
	PropConstWild = "constant-wild"
	// PropFirstSource: the destination takes the first source's PID.
	PropFirstSource = "first-source"
	// PropEitherNonzero: zero sources defer to the other operand, and a
	// genuine capability beats the wild tag (symmetric ADD/AND).
	PropEitherNonzero = "either-nonzero-prefer-capability"
	// PropCustom: none of the known shapes.
	PropCustom = "custom"
)

// classifyPropagation samples a Propagate closure over representative PID
// pairs: zero (untagged), two distinct capabilities, and the wild tag.
func classifyPropagation(f func(a, b core.PID) core.PID) string {
	if f == nil {
		return PropStructural
	}
	const p, q = core.PID(5), core.PID(7)
	w := core.WildPID
	pairs := [][2]core.PID{
		{0, 0}, {p, 0}, {0, p}, {p, q}, {q, p},
		{w, 0}, {0, w}, {w, p}, {p, w}, {w, w},
	}
	constWild, first, either := true, true, true
	for _, pr := range pairs {
		got := f(pr[0], pr[1])
		if got != w {
			constWild = false
		}
		if got != pr[0] {
			first = false
		}
		if got != eitherNonzero(pr[0], pr[1]) {
			either = false
		}
	}
	switch {
	case constWild:
		return PropConstWild
	case first:
		return PropFirstSource
	case either:
		return PropEitherNonzero
	}
	return PropCustom
}

// Export returns the database in JSON-marshalable form, in database
// order (the order is semantic: the engine applies the first match).
func (db *RuleDB) Export() []RuleExport {
	out := make([]RuleExport, 0, len(db.rules))
	for i := range db.rules {
		r := &db.rules[i]
		e := RuleExport{
			Name:        r.Name,
			Uop:         r.Uop.String(),
			Mode:        r.Mode.String(),
			Example:     r.Example,
			Semantics:   r.Semantics,
			CExample:    r.CExample,
			Propagation: classifyPropagation(r.Propagate),
		}
		if r.HasAlu {
			e.Alu = r.Alu.String()
		}
		out = append(out, e)
	}
	return out
}

// builtinExportJSON is the built-in database's export as compact JSON,
// marshalled once: NewRuleDB always returns the same Table-I rules.
var builtinExportJSON = sync.OnceValue(func() []byte {
	data, err := json.Marshal(NewRuleDB().Export())
	if err != nil {
		panic(fmt.Sprintf("tracker: rule export marshal: %v", err))
	}
	return data
})

// BuiltinExportJSON returns the built-in rule database's export as
// compact JSON: the byte-stable rule semantics that elision digests and
// campaign cache keys fold in. The slice is shared; callers must not
// modify it.
func BuiltinExportJSON() []byte { return builtinExportJSON() }
