package sim

import (
	"webcluster/internal/cache"
	"webcluster/internal/config"
	"webcluster/internal/content"
)

// objSize is the cache.Sizer the simulated page cache stores: only the
// byte size matters, never the bytes.
type objSize int64

// SizeBytes implements cache.Sizer.
func (s objSize) SizeBytes() int64 { return int64(s) }

var _ cache.Sizer = objSize(0)

// Node is one simulated back-end server: FIFO CPU, disk and NIC queues,
// an LRU page cache sized from the node's memory, and a placement set
// saying which objects are local.
type Node struct {
	Spec config.NodeSpec
	eng  *Engine
	hw   HardwareParams

	CPU  *Resource
	Disk *Resource
	NIC  *Resource

	pageCache *cache.LRU

	// placed is the local content set; nil+allContent models full
	// replication without materializing the set.
	placed     map[string]bool
	allContent bool

	// nfs, when set, serves objects that are not local (configuration 2).
	nfs *NFSNode

	// Active is the in-flight request count the pickers read.
	Active int64

	// down marks the node out of service (scheduled maintenance or a
	// failure event): the front end stops routing to it while in-flight
	// requests drain normally.
	down bool

	notFound  uint64
	classReqs map[content.Class]uint64
}

// NewNode builds a simulated node on eng.
func NewNode(eng *Engine, hw HardwareParams, spec config.NodeSpec) *Node {
	cacheBytes := int64(float64(spec.MemoryMB) * 1024 * 1024 * hw.CacheFraction)
	return &Node{
		Spec:      spec,
		eng:       eng,
		hw:        hw,
		CPU:       NewResource(eng),
		Disk:      NewResource(eng),
		NIC:       NewResource(eng),
		pageCache: cache.NewLRU(cacheBytes),
		placed:    make(map[string]bool),
		classReqs: make(map[content.Class]uint64),
	}
}

// SetAllContent marks the node as holding the entire site (full
// replication).
func (n *Node) SetAllContent() { n.allContent = true }

// SetHostsDynamic reserves dynamic-execution memory (interpreters,
// per-request heaps) on the node, shrinking its page cache — the memory
// side of the interference content segregation removes. Call during
// deployment, before traffic runs.
func (n *Node) SetHostsDynamic() {
	memMB := n.Spec.MemoryMB - n.hw.DynReserveMB
	if memMB < 8 {
		memMB = 8
	}
	n.pageCache = cache.NewLRU(int64(float64(memMB) * 1024 * 1024 * n.hw.CacheFraction))
}

// Place marks an object as locally stored.
func (n *Node) Place(path string) { n.placed[path] = true }

// Unplace removes an object from local storage and evicts any cached copy.
func (n *Node) Unplace(path string) {
	delete(n.placed, path)
	n.pageCache.Remove(path)
}

// Has reports whether the node stores path locally.
func (n *Node) Has(path string) bool { return n.allContent || n.placed[path] }

// UseNFS wires the shared file server for non-local content.
func (n *Node) UseNFS(nfs *NFSNode) { n.nfs = nfs }

// SetDown marks the node in or out of service. A down node receives no
// new requests; whatever is in flight drains normally (maintenance
// semantics, not a crash).
func (n *Node) SetDown(down bool) { n.down = down }

// Down reports whether the node is out of service.
func (n *Node) Down() bool { return n.down }

// CacheStats exposes the page-cache counters.
func (n *Node) CacheStats() cache.Stats { return n.pageCache.Stats() }

// NotFound returns requests for content the node did not hold and could
// not fetch (misrouting indicator).
func (n *Node) NotFound() uint64 { return n.notFound }

// Serve runs one request through the node's resource pipeline and calls
// done(ok) at completion.
func (n *Node) Serve(obj content.Object, done func(ok bool)) {
	n.Active++
	scale := cpuScale(n.Spec)
	finish := func(ok bool, respBytes int64) {
		// Response transmission through the node's NIC, chunked so a
		// video transfer does not monopolize the link.
		chunk := bytesTime(64<<10, n.hw.NICBytesPerSec)
		n.NIC.EnqueueChunked(bytesTime(respBytes, n.hw.NICBytesPerSec), chunk, func() {
			n.Active--
			n.classReqs[obj.Class]++
			if !ok {
				n.notFound++
			}
			done(ok)
		})
	}

	// Protocol parse on the CPU.
	n.CPU.Enqueue(scaleDur(n.hw.ParseCPU, scale), func() {
		if obj.Class.Dynamic() {
			n.serveDynamic(obj, scale, finish)
			return
		}
		n.serveStatic(obj, scale, finish)
	})
}

// serveDynamic executes CGI/ASP work on the CPU.
func (n *Node) serveDynamic(obj content.Object, scale float64, finish func(bool, int64)) {
	if !n.Has(obj.Path) && n.nfs == nil {
		finish(false, 256)
		return
	}
	exec := scaleDur(n.hw.ExecUnitCPU, obj.CPUCost*scale)
	if n.hw.DynThrashFactor > 1 && n.Spec.MemoryMB < n.hw.DynThrashMemMB {
		exec = scaleDur(exec, n.hw.DynThrashFactor)
	}
	n.CPU.Enqueue(exec, func() {
		finish(true, obj.Size)
	})
}

// serveStatic reads the object from page cache, local disk, or NFS.
func (n *Node) serveStatic(obj content.Object, scale float64, finish func(bool, int64)) {
	copyCost := bytesTime(obj.Size, n.hw.MemCopyBytesPerSec)
	if n.Has(obj.Path) {
		if _, hit := n.pageCache.Get(obj.Path); hit {
			n.CPU.Enqueue(copyCost, func() { finish(true, obj.Size) })
			return
		}
		seek := n.hw.seekFor(n.Spec)
		read := bytesTime(obj.Size, n.hw.diskBWFor(n.Spec))
		// Chunk long reads: the disk elevator interleaves other
		// requests between a video file's extents.
		chunk := seek + bytesTime(256<<10, n.hw.diskBWFor(n.Spec))
		n.Disk.EnqueueChunked(seek+read, chunk, func() {
			n.pageCache.Put(obj.Path, objSize(obj.Size))
			n.CPU.Enqueue(copyCost, func() { finish(true, obj.Size) })
		})
		return
	}
	if n.nfs == nil {
		finish(false, 256)
		return
	}
	// Remote file I/O: marshalling overhead on this node's CPU, then the
	// shared server's pipeline, then a local copy to the socket. Per the
	// scheme's semantics the web node does not cache NFS-served content
	// (no local storage is allocated to it).
	n.CPU.Enqueue(scaleDur(n.hw.NFSClientOverhead, scale), func() {
		n.nfs.Fetch(obj, func() {
			n.CPU.Enqueue(copyCost, func() { finish(true, obj.Size) })
		})
	})
}

// NFSNode is the shared file server of configuration 2: one machine whose
// CPU (RPC processing), disk and NIC serve every web node's misses.
type NFSNode struct {
	Spec config.NodeSpec
	eng  *Engine
	hw   HardwareParams

	CPU  *Resource
	Disk *Resource
	NIC  *Resource

	pageCache *cache.LRU
	ops       uint64
}

// NewNFSNode builds the shared file server.
func NewNFSNode(eng *Engine, hw HardwareParams, spec config.NodeSpec) *NFSNode {
	cacheBytes := int64(float64(spec.MemoryMB) * 1024 * 1024 * hw.CacheFraction)
	return &NFSNode{
		Spec:      spec,
		eng:       eng,
		hw:        hw,
		CPU:       NewResource(eng),
		Disk:      NewResource(eng),
		NIC:       NewResource(eng),
		pageCache: cache.NewLRU(cacheBytes),
	}
}

// Ops returns served file operations.
func (s *NFSNode) Ops() uint64 { return s.ops }

// CacheStats exposes the server's page-cache counters.
func (s *NFSNode) CacheStats() cache.Stats { return s.pageCache.Stats() }

// Fetch serves one remote file access and calls done when the bytes have
// left the server's NIC.
func (s *NFSNode) Fetch(obj content.Object, done func()) {
	scale := cpuScale(s.Spec)
	s.ops++
	s.CPU.Enqueue(scaleDur(s.hw.NFSPerOpCPU, scale), func() {
		transfer := func() {
			chunk := bytesTime(64<<10, s.hw.NICBytesPerSec)
			s.NIC.EnqueueChunked(bytesTime(obj.Size, s.hw.NICBytesPerSec), chunk, done)
		}
		if _, hit := s.pageCache.Get(obj.Path); hit {
			transfer()
			return
		}
		seek := s.hw.seekFor(s.Spec)
		read := bytesTime(obj.Size, s.hw.diskBWFor(s.Spec))
		chunk := seek + bytesTime(256<<10, s.hw.diskBWFor(s.Spec))
		s.Disk.EnqueueChunked(seek+read, chunk, func() {
			s.pageCache.Put(obj.Path, objSize(obj.Size))
			transfer()
		})
	})
}
