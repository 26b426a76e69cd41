package engine

import "strings"

// This file is the single engine-name table: the canonical runner names,
// their accepted aliases, and the one place they are parsed. Every layer
// that names an engine — the facade's EngineKind, the job-spec "engine"
// field, the anonsim -engine flag, and NewRunner itself — resolves names
// through CanonicalName, so the four call sites cannot drift: adding a
// runner means adding one row here.

// engineNames lists the runners in EngineKind order (the facade's iota
// order): canonical name first, aliases after. The empty alias on "seq"
// makes the unset name mean the sequential engine everywhere. "conc" and
// "concurrent" name the retired goroutine-per-agent runner; they stay
// accepted and run on the sharded engine, whose traces are identical.
var engineNames = []struct {
	canon   string
	aliases []string
}{
	{"seq", []string{"", "sequential"}},
	{"shard", []string{"sharded", "conc", "concurrent"}},
	{"vec", []string{"vectorized"}},
}

// Names returns the canonical engine names in EngineKind order.
func Names() []string {
	out := make([]string, len(engineNames))
	for i, e := range engineNames {
		out[i] = e.canon
	}
	return out
}

// NamesList renders the canonical names for error messages:
// "seq, shard, or vec".
func NamesList() string {
	names := Names()
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// CanonicalName resolves an engine name or alias (case-insensitively,
// surrounding space ignored) to its canonical form. The empty string is
// the sequential engine. The second result reports whether the name is
// known.
func CanonicalName(name string) (string, bool) {
	s := strings.ToLower(strings.TrimSpace(name))
	for _, e := range engineNames {
		if s == e.canon {
			return e.canon, true
		}
		for _, a := range e.aliases {
			if s == a {
				return e.canon, true
			}
		}
	}
	return "", false
}
