package trace_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wtcp/internal/oracle"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// FuzzGoldenDecode holds the golden-trace format to the contract every
// on-disk format here keeps: DecodeEvents loads or refuses with a named
// ("trace: ...") error and never panics; whatever loads re-encodes to a
// byte fixed point; and the conformance oracle replays any loaded stream
// to a verdict — a violation or none — without panicking, under every
// sender variant's profile.
func FuzzGoldenDecode(f *testing.F) {
	f.Add("wtcp-golden v1 mss=536 events=2\n" +
		"0.000000 send seq=0 len=536 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=536 ssth=4096 rto=3.000000 dl=3.000000 sh=0 dup=0 att=0 unit=0 pid=0\n" +
		"0.132286 arqattempt seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=0.000000 dl=- sh=0 dup=0 att=1 unit=2 pid=1\n")
	f.Add("wtcp-golden v1 mss=0 events=0\n")
	f.Add("wtcp-golden v1 mss=536 events=1\n0.000000 send seq=0\n")
	// The head of each committed golden, its header cut to match.
	paths, _ := filepath.Glob("../../cmd/wtcp/testdata/goldens/*.golden")
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 42)
		mss := strings.Fields(lines[0])[2]
		f.Add("wtcp-golden v1 " + mss + " events=40\n" + strings.Join(lines[1:41], "\n") + "\n")
	}
	variants := []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant}
	f.Fuzz(func(t *testing.T, data string) {
		mss, events, err := trace.DecodeEvents(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("refusal without the package's name: %v", err)
			}
			return
		}
		enc := trace.EncodeEvents(mss, events)
		mss2, events2, err := trace.DecodeEvents(enc)
		if err != nil {
			t.Fatalf("a load's encoding does not load: %v\n%s", err, enc)
		}
		if again := trace.EncodeEvents(mss2, events2); again != enc {
			t.Fatalf("encoding is not a fixed point:\n%s\nre-encodes to\n%s", enc, again)
		}
		for _, v := range variants {
			oracle.Check(oracle.Config{
				Variant: v, MSS: mss, Window: 64 * units.KB,
				RTmax: 13, SnoopMaxRetx: 3, TrackNotifications: true,
			}, events)
		}
	})
}
