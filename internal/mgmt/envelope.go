package mgmt

import (
	"strconv"

	"webcluster/internal/config"
)

// The hot envelopes' codec. A console insert on two nodes crosses eight
// envelopes — console request and reply, a broker request and reply per
// node — and with encoding/json each was reflected over, allocating as
// it went (BenchmarkMgmtInsert/4KiB: 127 allocs/op then, 57 now). The
// four envelopes every content operation sends (consoleEnvelope,
// ConsoleResponse, request, response) therefore list their members
// (fields), which appendObject writes and scanner.object reads without
// reflection, in encoding/json's bytes. Both give up on anything outside
// a flat subset: a fields list of nil (an envelope carrying a nested
// report: status, stats, traces, journal, explain, an agent install), a
// string with a byte encoding/json would escape or any non-ASCII byte, a
// null, a number that is not a plain integer, an unknown key. wire.go
// then uses encoding/json for that envelope. FuzzEnvelopeCodec holds the
// two codecs to each other.

// envelope is a hot envelope.
type envelope interface {
	// fields appends the members to fs in struct order, or returns nil
	// when the envelope holds something only encoding/json writes.
	fields(fs []field) []field
}

// field is one member: its key, a pointer to its value, and whether it
// is written when zero (the members without omitempty).
type field struct {
	key    string
	val    any
	always bool
}

// appendObject appends fs as a JSON object; false when a value needs
// encoding/json.
func appendObject(b []byte, fs []field) ([]byte, bool) {
	if fs == nil {
		return b, false
	}
	b = append(b, '{')
	n := 0
	for _, f := range fs {
		start := len(b)
		if n > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), f.key...), '"', ':')
		ok, empty := true, false
		switch v := f.val.(type) {
		case *string:
			b, ok, empty = appendQuoted(b, *v), safeString(*v), *v == ""
		case *config.NodeID:
			b, ok, empty = appendQuoted(b, string(*v)), safeString(string(*v)), *v == ""
		case *int64:
			b, empty = strconv.AppendInt(b, *v, 10), *v == 0
		case *int:
			b, empty = strconv.AppendInt(b, int64(*v), 10), *v == 0
		case *bool:
			b, empty = strconv.AppendBool(b, *v), !*v
		case *[]string:
			b, ok, empty = appendStrings(b, *v), safeStrings(*v), len(*v) == 0
		case *[]config.NodeID:
			b, ok, empty = appendStrings(b, *v), safeStrings(*v), len(*v) == 0
		case **Args:
			if empty = *v == nil; !empty {
				b, ok = appendObject(b, (*v).fields(fs[len(fs):]))
			}
		case **Result:
			if empty = *v == nil; !empty {
				b, ok = appendObject(b, (*v).fields(fs[len(fs):]))
			}
		}
		if empty && !f.always {
			b = b[:start]
			continue
		}
		if !ok {
			return b, false
		}
		n++
	}
	return append(b, '}'), true
}

// safeString reports whether s is written as it is between quotes: no
// byte encoding/json escapes, and ASCII only.
func safeString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func safeStrings[S ~string](v []S) bool {
	for _, s := range v {
		if !safeString(string(s)) {
			return false
		}
	}
	return true
}

func appendQuoted(b []byte, s string) []byte {
	return append(append(append(b, '"'), s...), '"')
}

func appendStrings[S ~string](b []byte, v []S) []byte {
	b = append(b, '[')
	for i, s := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendQuoted(b, string(s))
	}
	return append(b, ']')
}

// scanner reads the flat subset: objects whose values are strings
// without escapes, integers, true or false, string arrays, and the
// nested envelopes' objects. Anything else sets bad.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// decodeFlat decodes b, which must hold one object and nothing after it
// but whitespace, into fs.
func decodeFlat(b []byte, fs []field) bool {
	s := scanner{b: b}
	s.object(fs)
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// ws skips insignificant whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// at reports whether c is next after whitespace, consuming it if so.
func (s *scanner) at(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// eat consumes c after whitespace, or marks the input bad.
func (s *scanner) eat(c byte) {
	if !s.at(c) {
		s.bad = true
	}
}

// raw reads a string and returns its bytes, which are its value: a
// string with an escape, a control or a non-ASCII byte is bad.
func (s *scanner) raw() []byte {
	if !s.at('"') {
		s.bad = true
		return nil
	}
	for i := s.i; i < len(s.b); i++ {
		if c := s.b[i]; c == '"' {
			v := s.b[s.i:i]
			s.i = i + 1
			return v
		} else if c == '\\' || c < ' ' || c > '~' {
			break
		}
	}
	s.bad = true
	return nil
}

// int reads an integer of at most 18 digits, which no int64 overflows.
func (s *scanner) int() int64 {
	neg := s.at('-')
	start := s.i
	var v int64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	n := s.i - start
	if n == 0 || n > 18 || n > 1 && s.b[start] == '0' ||
		s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.bad = true
	}
	if neg {
		return -v
	}
	return v
}

// bool reads true or false.
func (s *scanner) bool() bool {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
	default:
		s.bad = true
	}
	return false
}

// scanStrings reads an array of strings; [] is empty, not nil.
func scanStrings[S ~string](s *scanner) []S {
	s.eat('[')
	out := []S{}
	for first := true; !s.bad && !s.at(']'); first = false {
		if !first {
			s.eat(',')
		}
		out = append(out, S(s.raw()))
	}
	return out
}

// object reads an object into fs. A key repeated overwrites, and a
// nested object repeated merges, as encoding/json does.
func (s *scanner) object(fs []field) {
	if fs == nil {
		s.bad = true
	}
	s.eat('{')
	for first := true; !s.bad && !s.at('}'); first = false {
		if !first {
			s.eat(',')
		}
		key := s.raw()
		s.eat(':')
		var f *field
		for i := range fs {
			if fs[i].key == string(key) {
				f = &fs[i]
			}
		}
		if s.bad || f == nil {
			s.bad = true
			return
		}
		switch v := f.val.(type) {
		case *string:
			*v = string(s.raw())
		case *config.NodeID:
			*v = config.NodeID(s.raw())
		case *int64:
			*v = s.int()
		case *int:
			n := s.int()
			*v = int(n)
			s.bad = s.bad || int64(*v) != n
		case *bool:
			*v = s.bool()
		case *[]string:
			*v = scanStrings[string](s)
		case *[]config.NodeID:
			*v = scanStrings[config.NodeID](s)
		case **Args:
			if *v == nil {
				*v = new(Args)
			}
			s.object((*v).fields(fs[len(fs):]))
		case **Result:
			if *v == nil {
				*v = new(Result)
			}
			s.object((*v).fields(fs[len(fs):]))
		}
	}
}

func (e *consoleEnvelope) fields(fs []field) []field {
	r := &e.ConsoleRequest
	return append(fs,
		field{"op", &r.Op, true}, field{"path", &r.Path, false}, field{"newPath", &r.NewPath, false},
		field{"size", &r.Size, false}, field{"priority", &r.Priority, false}, field{"node", &r.Node, false},
		field{"source", &r.Source, false}, field{"target", &r.Target, false}, field{"nodes", &r.Nodes, false},
		field{"objects", &r.Objects, false}, field{"seed", &r.Seed, false}, field{"workload", &r.Workload, false},
		field{"policy", &r.Policy, false}, field{"limit", &r.Limit, false}, field{"payload", &e.Payload, false},
	)
}

func (r *ConsoleResponse) fields(fs []field) []field {
	if r.Status != nil || r.Cache != nil || r.Stats != nil || r.Traces != nil || r.Journal != nil || r.Explain != nil {
		return nil
	}
	return append(fs,
		field{"ok", &r.OK, true}, field{"error", &r.Error, false}, field{"tree", &r.Tree, false},
		field{"nodes", &r.Nodes, false}, field{"actions", &r.Actions, false}, field{"message", &r.Message, false},
	)
}

func (r *request) fields(fs []field) []field {
	if r.Install != nil {
		return nil
	}
	return append(fs, field{"id", &r.ID, true}, field{"agent", &r.Agent, false}, field{"args", &r.Args, false}, field{"payload", &r.Payload, false})
}

func (a *Args) fields(fs []field) []field {
	return append(fs, field{"path", &a.Path, false}, field{"size", &a.Size, false}, field{"dest", &a.Dest, false}, field{"source", &a.Source, false})
}

func (r *response) fields(fs []field) []field {
	return append(fs,
		field{"id", &r.ID, true}, field{"ok", &r.OK, true}, field{"error", &r.Error, false},
		field{"result", &r.Result, false}, field{"needCode", &r.NeedCode, false}, field{"payload", &r.Payload, false},
	)
}

func (r *Result) fields(fs []field) []field {
	if r.Status != nil || r.Telemetry != nil || r.Journal != nil {
		return nil
	}
	return append(fs, field{"message", &r.Message, false}, field{"paths", &r.Paths, false})
}
