package webcluster

import (
	"os/exec"
	"strings"
	"testing"
)

// The distributor and the back end link one HTTP stack, the tree's own
// httpx: every listener they open, the admin and profiling endpoints
// included, serves on it. net/http and the TLS stack it brings would add
// about 70 packages and half of the distributor's binary for nothing the
// processes use.
func TestBinariesLinkOneHTTPStack(t *testing.T) {
	for _, cmd := range []string{"./cmd/distributor", "./cmd/backend"} {
		out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}", cmd).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", cmd, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			pkg, imports, _ := strings.Cut(line, ":")
			for _, imp := range strings.Fields(imports) {
				if imp == "net/http" || imp == "crypto/tls" {
					t.Errorf("%s links %s, imported by %s", cmd, imp, pkg)
				}
			}
		}
	}
}
