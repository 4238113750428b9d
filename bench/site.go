package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/workload"
)

// The two back ends every workload runs on.
const (
	nodeA config.NodeID = "n1"
	nodeB config.NodeID = "n2"
)

// sizeLadder is the fixed set of static object sizes on the small sites.
// Sizes are assigned by popularity rank, not drawn, so the byte mix of the
// request stream is the same for every seed and only names, bodies and
// request order change with it.
var sizeLadder = [...]int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}

// object is one placed item and everything the load generator needs to
// request it and check the answer.
type object struct {
	path    string
	class   content.Class
	nodes   []config.NodeID
	data    []byte // bytes placed through the console
	request []byte // the GET the load generator sends
	// want holds the acceptable 200 bodies: the placed bytes for static
	// content, one rendered page per holding node for dynamic content.
	want [][]byte
}

// site is the generated content of one workload run, in popularity order:
// index 0 is the hottest object.
type site struct {
	seed    int64
	objects []*object
}

// siteSpec is what a workload asks the generator for.
type siteSpec struct {
	small int // static objects on the size ladder
	large int // video-class objects of 256 KiB to 1 MiB
	// dynamicEvery > 0 puts one CGI or ASP object after every
	// dynamicEvery static ones (9 makes a tenth of the site dynamic).
	dynamicEvery int
}

// bodyBytes fills a deterministic body for (seed, path, version): the
// load generator re-derives it to check every response.
func bodyBytes(seed int64, path string, version, size int) []byte {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%d|%s|%d", seed, path, version)
	x := h.Sum64() | 1
	out := make([]byte, size)
	for i := range out {
		// xorshift64: cheap, and good enough that a shifted or
		// truncated body never compares equal
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x >> 32)
	}
	return out
}

// requestBytes renders the GET for path exactly as the load generator
// sends it and the layer walk parses it.
func requestBytes(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// dynamicBody is the page cmd/backend's synthetic handlers render.
func dynamicBody(kind string, node config.NodeID, path string) []byte {
	return []byte(fmt.Sprintf("<html>%s from %s: %s?</html>\n", kind, node, path))
}

// newStatic builds a static object with its placed body.
func newStatic(seed int64, path string, size int, nodes ...config.NodeID) *object {
	data := bodyBytes(seed, path, 0, size)
	return &object{
		path:    path,
		class:   content.Classify(path),
		nodes:   nodes,
		data:    data,
		request: requestBytes(path),
		want:    [][]byte{data},
	}
}

// newDynamic builds a CGI or ASP object; any holding node may answer.
func newDynamic(path string, nodes ...config.NodeID) *object {
	class := content.Classify(path)
	o := &object{
		path:    path,
		class:   class,
		nodes:   nodes,
		data:    []byte("#!script " + path + "\n"),
		request: requestBytes(path),
	}
	for _, n := range nodes {
		o.want = append(o.want, dynamicBody(class.String(), n, path))
	}
	return o
}

// generateSite builds the site for spec from seed. Rank i of the small
// objects takes size ladder[i%5], class html or image by parity, and a
// placement by i%4: half on n1 only, a quarter on n2 only, a quarter on
// both.
func generateSite(spec siteSpec, seed int64) *site {
	rng := rand.New(rand.NewSource(seed))
	s := &site{seed: seed}
	used := map[string]bool{}
	name := func(format string, dirs int) string {
		for {
			p := fmt.Sprintf(format, rng.Intn(dirs), rng.Intn(1_000_000))
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	both := []config.NodeID{nodeA, nodeB}
	placements := [4][]config.NodeID{{nodeA}, {nodeA}, {nodeB}, both}
	for i := 0; i < spec.small; i++ {
		format := "/docs/d%02d/p%06d.html"
		if i%2 == 1 {
			format = "/img/d%02d/i%06d.gif"
		}
		s.objects = append(s.objects, newStatic(seed, name(format, 40), sizeLadder[i%len(sizeLadder)], placements[i%4]...))
		if spec.dynamicEvery > 0 && (i+1)%spec.dynamicEvery == 0 {
			format = "/cgi-bin/s%02d/q%06d.cgi"
			if (i/spec.dynamicEvery)%2 == 1 {
				format = "/asp/a%02d/y%06d.asp"
			}
			s.objects = append(s.objects, newDynamic(name(format, 8), both...))
		}
	}
	for i := 0; i < spec.large; i++ {
		size := (256 + 128*(i%7)) << 10
		s.objects = append(s.objects, newStatic(seed, name("/video/v%02d/m%06d.mpg", 4), size, both...))
	}
	return s
}

// stream draws the request ranks of one load-generator connection: Zipf
// over the site with the repo's default skew, seeded from the run seed and
// the connection index.
type stream struct {
	site *site
	zipf *workload.Zipf
}

func newStream(s *site, seed int64, conn int) *stream {
	z, err := workload.NewZipf(len(s.objects), workload.DefaultZipfS, seed*7919+int64(conn)+1)
	if err != nil {
		panic(err) // a site is never empty and the skew is a constant
	}
	return &stream{site: s, zipf: z}
}

func (st *stream) next() *object { return st.site.objects[st.zipf.Next()] }

// Management operations of the churn script.
const (
	opInsert    = "insert"
	opUpdate    = "update"
	opReplicate = "replicate"
	opOffload   = "offload"
	opRename    = "rename"
	opPurge     = "purge"
	opDelete    = "delete"
)

var opKinds = [...]string{opInsert, opUpdate, opReplicate, opOffload, opRename, opPurge, opDelete}

// churnOp is one scripted console operation plus the state a reader must
// observe once it has returned OK.
type churnOp struct {
	kind    string
	path    string
	newPath string        // rename
	node    config.NodeID // replicate target, offload victim
	source  config.NodeID // replicate
	data    []byte        // insert, update
	// probes are checked by the reader's next requests.
	probes []probe
}

// probe is one expected answer: status 404, or 200 with one of obj.want
// and, when the answer names its server, a server in obj.nodes.
type probe struct {
	obj    *object
	status int
}

// churnScript generates n operations from seed against st. Content-
// changing operations (insert, update, rename, delete) work on a pool of
// /churn/ objects the read stream never requests, so a read in flight
// cannot race the change it is checked against; placement operations
// (replicate, offload, purge) hit the popular static objects the readers
// are fetching. The generator tracks placement, so every operation is
// valid when the script runs in order.
func churnScript(st *site, seed int64, n int) []churnOp {
	rng := rand.New(rand.NewSource(seed ^ 0x63687572))
	zipf, err := workload.NewZipf(len(st.objects), workload.DefaultZipfS, seed^0x7a697066)
	if err != nil {
		panic(err)
	}
	locs := make(map[string][]config.NodeID, len(st.objects))
	for _, o := range st.objects {
		locs[o.path] = o.nodes
	}
	var pool []*object // live /churn/ objects
	serial := 0
	other := func(n config.NodeID) config.NodeID {
		if n == nodeA {
			return nodeB
		}
		return nodeA
	}
	popularStatic := func() *object {
		for {
			if o := st.objects[zipf.Next()]; !o.class.Dynamic() {
				return o
			}
		}
	}
	withNodes := func(o *object, nodes []config.NodeID) *object {
		c := *o
		c.nodes = nodes
		return &c
	}
	ops := make([]churnOp, 0, n)
	for len(ops) < n {
		kind := opKinds[rng.Intn(len(opKinds))]
		if len(pool) < 8 {
			kind = opInsert
		}
		switch kind {
		case opInsert:
			serial++
			path := fmt.Sprintf("/churn/c%02d/n%06d.html", rng.Intn(8), serial)
			o := newStatic(seed, path, sizeLadder[rng.Intn(len(sizeLadder))], []config.NodeID{nodeA, nodeB}[rng.Intn(2)])
			pool = append(pool, o)
			ops = append(ops, churnOp{kind: kind, path: path, data: o.data, node: o.nodes[0],
				probes: []probe{{obj: o, status: 200}}})
		case opUpdate:
			i := rng.Intn(len(pool))
			serial++
			o := *pool[i]
			o.data = bodyBytes(seed, o.path, serial, sizeLadder[rng.Intn(len(sizeLadder))])
			o.want = [][]byte{o.data}
			pool[i] = &o
			ops = append(ops, churnOp{kind: kind, path: o.path, data: o.data,
				probes: []probe{{obj: &o, status: 200}}})
		case opRename:
			i := rng.Intn(len(pool))
			serial++
			old := pool[i]
			o := *old
			o.path = fmt.Sprintf("/churn/c%02d/r%06d.html", rng.Intn(8), serial)
			o.request = requestBytes(o.path)
			pool[i] = &o
			ops = append(ops, churnOp{kind: kind, path: old.path, newPath: o.path,
				probes: []probe{{obj: &o, status: 200}, {obj: old, status: 404}}})
		case opDelete:
			i := rng.Intn(len(pool))
			o := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			ops = append(ops, churnOp{kind: kind, path: o.path,
				probes: []probe{{obj: o, status: 404}}})
		case opPurge:
			o := popularStatic()
			ops = append(ops, churnOp{kind: kind, path: o.path,
				probes: []probe{{obj: withNodes(o, locs[o.path]), status: 200}}})
		case opReplicate, opOffload:
			// whichever of the two the object's placement allows: a
			// single copy gains a replica, a replicated one sheds one
			o := popularStatic()
			cur := locs[o.path]
			if len(cur) == 1 {
				target := other(cur[0])
				locs[o.path] = []config.NodeID{cur[0], target}
				ops = append(ops, churnOp{kind: opReplicate, path: o.path, source: cur[0], node: target,
					probes: []probe{{obj: withNodes(o, locs[o.path]), status: 200}}})
			} else {
				victim := cur[rng.Intn(2)]
				locs[o.path] = []config.NodeID{other(victim)}
				ops = append(ops, churnOp{kind: opOffload, path: o.path, node: victim,
					probes: []probe{{obj: withNodes(o, locs[o.path]), status: 200}}})
			}
		}
	}
	return ops
}
