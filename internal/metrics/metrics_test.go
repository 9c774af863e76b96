package metrics

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.Add("a", "1")
	tb.Add("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset in every row.
	off := strings.Index(lines[1], "value")
	if lines[3][off:off+1] != "1" && lines[4][off:off+1] != "1" {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add(`he said "hi"`, "x,y")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"he said \"\"hi\"\"\",\"x,y\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestByteFormats(t *testing.T) {
	if MiB(1<<20) != "1.00" || GiB(3<<30) != "3.00" {
		t.Error("byte formatting wrong")
	}
}

// Rows wider than the header still render, padding the header.
func TestTableRowsWiderThanHeader(t *testing.T) {
	tb := NewTable("", "a")
	tb.Add("1", "2", "3")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[2], "3") {
		t.Errorf("extra cell dropped: %q", out)
	}
}

// CSV surfaces writer errors instead of swallowing them.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errShort }

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestCSVPropagatesWriteError(t *testing.T) {
	tb := NewTable("", "a")
	tb.Add("1")
	if err := tb.CSV(failWriter{}); err == nil {
		t.Error("CSV ignored the writer error")
	}
}

func TestChartContainsAllSeries(t *testing.T) {
	s := []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}
	out := Chart("demo", s, 20, 8)
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("marks missing:\n%s", out)
	}
	if !strings.Contains(out, "x: 0 .. 2") {
		t.Errorf("x range missing:\n%s", out)
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	out := Chart("flat", []Series{{Name: "c", X: []float64{1}, Y: []float64{5}}}, 3, 2)
	if out == "" {
		t.Fatal("degenerate chart must still render")
	}
}
