package trace

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/workload"
)

func sampleEntry() Entry {
	return Entry{
		ClientIP: "10.1.2.3",
		Time:     time.Date(2000, 4, 4, 12, 30, 45, 0, time.UTC),
		Method:   "GET",
		Path:     "/docs/a.html",
		Proto:    "HTTP/1.0",
		Status:   200,
		Bytes:    4096,
	}
}

func TestEntryStringFormat(t *testing.T) {
	line := sampleEntry().String()
	want := `10.1.2.3 - - [04/Apr/2000:12:30:45 +0000] "GET /docs/a.html HTTP/1.0" 200 4096`
	if line != want {
		t.Fatalf("line = %q\nwant  %q", line, want)
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	orig := sampleEntry()
	got, err := ParseLine(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(orig.Time) {
		t.Fatalf("time = %v, want %v", got.Time, orig.Time)
	}
	got.Time = orig.Time // zone representation may differ; compare rest
	if got.ClientIP != orig.ClientIP || got.Path != orig.Path ||
		got.Status != orig.Status || got.Bytes != orig.Bytes ||
		got.Method != orig.Method || got.Proto != orig.Proto {
		t.Fatalf("round trip: %+v vs %+v", got, orig)
	}
}

func TestParseLineApacheExample(t *testing.T) {
	line := `127.0.0.1 frank bob [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326`
	e, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if e.ClientIP != "127.0.0.1" || e.Path != "/apache_pb.gif" || e.Bytes != 2326 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestParseLineDashBytes(t *testing.T) {
	line := `1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.0" 304 -`
	e, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes != 0 || e.Status != 304 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestParseLineMalformed(t *testing.T) {
	bad := []string{
		"",
		"no brackets at all",
		`1.2.3.4 - - [not-a-time] "GET / HTTP/1.0" 200 1`,
		`1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] GET / 200 1`,
		`1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /" 200 1`,
		`1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.0" abc 1`,
		`1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.0"`,
	}
	for _, line := range bad {
		if _, err := ParseLine(line); !errors.Is(err, ErrMalformedLine) {
			t.Errorf("ParseLine(%q) err = %v", line, err)
		}
	}
}

// FuzzParseLine: every line the distributor's access log can hold parses
// back to the entry that wrote it. httpx ends the method and the target at
// a space and the line at a line feed, and takes any other byte in them —
// a quote, a backslash, a control byte, invalid UTF-8.
func FuzzParseLine(f *testing.F) {
	f.Add("GET", "/docs/a.html", true, 200, int64(4096), int64(955000000), int16(0), []byte{10, 1, 2, 3})
	f.Add("GET", `/a"b`, true, 404, int64(0), int64(0), int16(-420), []byte{127, 0, 0, 1})
	f.Add("GET", "/a\x01b", false, 200, int64(1), int64(1), int16(60), []byte{127, 0, 0, 1})
	f.Add("P\"T", "/\\?q=\xff\t", true, 502, int64(-1), int64(253402214399), int16(1439), netip.MustParseAddr("2001:db8::1").AsSlice())
	f.Fuzz(func(t *testing.T, method, target string, http11 bool, status int, n, unix int64, offMin int16, ip []byte) {
		addr, ok := netip.AddrFromSlice(ip)
		if !ok || !requestWord(method) || !requestWord(target) ||
			unix < 0 || unix >= 253402214400 || offMin <= -24*60 || offMin >= 24*60 {
			t.Skip()
		}
		proto := "HTTP/1.0"
		if http11 {
			proto = "HTTP/1.1"
		}
		e := Entry{
			ClientIP: addr.String(),
			Time:     time.Unix(unix, 0).In(time.FixedZone("", int(offMin)*60)),
			Method:   method, Path: target, Proto: proto,
			Status: status, Bytes: n,
		}
		line := e.String()
		got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if !got.Time.Equal(e.Time) {
			t.Fatalf("ParseLine(%q).Time = %v, want %v", line, got.Time, e.Time)
		}
		got.Time = e.Time
		if got != e {
			t.Fatalf("ParseLine(%q) = %+v, want %+v", line, got, e)
		}
	})
}

// requestWord reports whether s can be a method or target httpx accepts.
func requestWord(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \n")
}

func TestReadWriteRoundTrip(t *testing.T) {
	entries := []Entry{sampleEntry(), sampleEntry()}
	entries[1].Path = "/other.gif"
	entries[1].Time = entries[1].Time.Add(time.Second)
	var buf bytes.Buffer
	if err := Write(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Path != "/other.gif" {
		t.Fatalf("read back %+v", got)
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	raw := sampleEntry().String() + "\n\n" + sampleEntry().String() + "\n"
	got, err := Read(strings.NewReader(raw))
	if err != nil || len(got) != 2 {
		t.Fatalf("got %d entries, %v", len(got), err)
	}
}

func TestReadReportsLineNumber(t *testing.T) {
	raw := sampleEntry().String() + "\ngarbage line\n"
	_, err := Read(strings.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func testSite(t *testing.T) *content.Site {
	t.Helper()
	site, err := content.GenerateSite(content.GenParams{
		Objects:         60,
		Seed:            3,
		MeanStaticBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestSynthesize(t *testing.T) {
	site := testSite(t)
	gen, err := workload.NewGenerator(site, workload.DefaultZipfS, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	entries := Synthesize(gen, 500, start, 200, 7)
	if len(entries) != 500 {
		t.Fatalf("entries = %d", len(entries))
	}
	prev := start
	for i, e := range entries {
		if e.Time.Before(prev) {
			t.Fatalf("entry %d time went backwards", i)
		}
		prev = e.Time
		if _, ok := site.Lookup(e.Path); !ok {
			t.Fatalf("entry %d path %s not in site", i, e.Path)
		}
	}
	// ~200 req/s for 500 requests ≈ 2.5 s span.
	span := entries[len(entries)-1].Time.Sub(start)
	if span < time.Second || span > 10*time.Second {
		t.Fatalf("trace span = %v", span)
	}
}

// TestPropertySynthesizeDeterministic: identical inputs give identical
// traces.
func TestPropertySynthesizeDeterministic(t *testing.T) {
	site := testSite(t)
	f := func(seed int64) bool {
		g1, err := workload.NewGenerator(site, workload.DefaultZipfS, seed)
		if err != nil {
			return false
		}
		g2, err := workload.NewGenerator(site, workload.DefaultZipfS, seed)
		if err != nil {
			return false
		}
		start := time.Unix(1e9, 0).UTC()
		a := Synthesize(g1, 50, start, 100, seed)
		b := Synthesize(g2, 50, start, 100, seed)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
