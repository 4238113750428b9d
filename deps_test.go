package webcluster

import (
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"webcluster/internal/lint/load"
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

// No code writes through net.Buffers but the off-Linux raw connection
// stand-in. On an *httpx.TCPConn, net.Buffers.WriteTo finds the embedded
// *net.TCPConn's writev and takes it, and with it the runtime's syscall
// hand-off the raw socket exists to avoid — silently, the bytes are the
// same. httpx.WriteVectored is the vectored write that keeps the raw
// path. The check is type-checked, so an alias or a method value is
// caught as surely as the spelled type.
func TestNoNetBuffersWriter(t *testing.T) {
	root, modPath, err := load.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := load.NewLoader(root, modPath)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if name := d.Name(); path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		hasSource := false
		for _, m := range matches {
			hasSource = hasSource || !strings.HasSuffix(m, "_test.go")
		}
		if !hasSource {
			return nil
		}
		pkg, err := loader.LoadDir(path, strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/."))
		if err != nil {
			if strings.Contains(err.Error(), "no Go files") {
				return nil // every file is for another platform
			}
			return err
		}
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() != "net" {
				continue
			}
			named := obj.Name() == "Buffers"
			if fn, ok := obj.(*types.Func); ok {
				recv := fn.Type().(*types.Signature).Recv()
				named = recv != nil && strings.HasSuffix(recv.Type().String(), "net.Buffers")
			}
			pos := pkg.Fset.Position(id.Pos())
			if named && filepath.Base(pos.Filename) != "tcpconn_other.go" {
				t.Errorf("%s: uses net.%s; write vectored through httpx.WriteVectored", pos, obj.Name())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
