// Package content models the web site itself: content classes (static
// HTML, images, CGI, ASP, video), per-object metadata, and synthetic site
// generation following the workload-characterization studies the paper
// cites (Arlitt & Williamson 1996; Arlitt & Jin 1999): skewed popularity
// and heavy-tailed file sizes where a tiny fraction of large files consumes
// most of the storage yet receives almost no requests.
package content

import (
	"fmt"
	"math"
	"math/rand"
	"path"
	"sort"
	"strings"
)

// Class categorizes an object by service demand, the axis along which the
// paper partitions content.
type Class int

// Content classes.
const (
	// ClassHTML is a static text page: cheap CPU, small, cacheable.
	ClassHTML Class = iota + 1
	// ClassImage is a static image: cheap CPU, small-to-medium, cacheable.
	ClassImage
	// ClassCGI is a CGI script execution: CPU-bound dynamic content.
	ClassCGI
	// ClassASP is an ASP page execution: CPU-bound dynamic content,
	// (IIS-hosted in the paper's testbed).
	ClassASP
	// ClassVideo is a large multimedia file: disk/bandwidth-bound, rarely
	// requested, dominates storage.
	ClassVideo
)

// classNames indexes Class values starting at 1.
var classNames = [...]string{"", "html", "image", "cgi", "asp", "video"}

// String returns the lowercase class name used in metrics and reports.
func (c Class) String() string {
	if c < 1 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Dynamic reports whether the class requires server-side execution.
func (c Class) Dynamic() bool { return c == ClassCGI || c == ClassASP }

// Classes lists all classes in declaration order.
func Classes() []Class {
	return []Class{ClassHTML, ClassImage, ClassCGI, ClassASP, ClassVideo}
}

// Classify infers a content class from a URL path by the site's naming
// conventions (the same conventions the synthetic generator emits).
func Classify(p string) Class {
	switch {
	case strings.Contains(p, "/cgi-bin/") || strings.HasSuffix(p, ".cgi"):
		return ClassCGI
	case strings.HasSuffix(p, ".asp"):
		return ClassASP
	case strings.HasSuffix(p, ".mpg") || strings.HasSuffix(p, ".avi") ||
		strings.HasSuffix(p, ".mov") || strings.HasSuffix(p, ".rm"):
		return ClassVideo
	case strings.HasSuffix(p, ".gif") || strings.HasSuffix(p, ".jpg") ||
		strings.HasSuffix(p, ".png") || strings.HasSuffix(p, ".ico"):
		return ClassImage
	default:
		return ClassHTML
	}
}

// Object is one item of web content.
type Object struct {
	// Path is the URL path, also the object's identity.
	Path string
	// Size is the object size in bytes. For dynamic content it is the
	// typical response size.
	Size  int64
	Class Class
	// Priority marks critical content (product lists, shopping pages in
	// the paper's motivation); higher is more important. Default 0.
	Priority int
	// CPUCost scales the computational demand of a dynamic object in
	// abstract work units; 0 for static content.
	CPUCost float64
}

// Site is an immutable collection of objects ordered by descending
// designed popularity: index 0 is the hottest object. The request
// generator maps a Zipf rank directly to this ordering.
type Site struct {
	objects []Object
	byPath  map[string]int
}

// NewSite builds a Site from objects, which are taken in the given order as
// the popularity ranking. Duplicate paths are rejected.
func NewSite(objects []Object) (*Site, error) {
	byPath := make(map[string]int, len(objects))
	for i, o := range objects {
		if o.Path == "" || !strings.HasPrefix(o.Path, "/") {
			return nil, fmt.Errorf("site: object %d has invalid path %q", i, o.Path)
		}
		if _, dup := byPath[o.Path]; dup {
			return nil, fmt.Errorf("site: duplicate path %q", o.Path)
		}
		byPath[o.Path] = i
	}
	return &Site{objects: append([]Object(nil), objects...), byPath: byPath}, nil
}

// Len returns the number of objects.
func (s *Site) Len() int { return len(s.objects) }

// ByRank returns the object at popularity rank i (0 = hottest).
func (s *Site) ByRank(i int) Object { return s.objects[i] }

// Lookup returns the object at a path.
func (s *Site) Lookup(p string) (Object, bool) {
	i, ok := s.byPath[p]
	if !ok {
		return Object{}, false
	}
	return s.objects[i], true
}

// Objects returns a copy of all objects in rank order.
func (s *Site) Objects() []Object {
	return append([]Object(nil), s.objects...)
}

// TotalBytes sums object sizes.
func (s *Site) TotalBytes() int64 {
	var total int64
	for _, o := range s.objects {
		total += o.Size
	}
	return total
}

// ClassBytes sums object sizes per class.
func (s *Site) ClassBytes() map[Class]int64 {
	out := make(map[Class]int64, 5)
	for _, o := range s.objects {
		out[o.Class] += o.Size
	}
	return out
}

// Directories returns the sorted set of directories containing at least one
// object (used by the single-system-image tree view).
func (s *Site) Directories() []string {
	set := make(map[string]struct{})
	for _, o := range s.objects {
		dir := path.Dir(o.Path)
		for dir != "/" && dir != "." {
			set[dir] = struct{}{}
			dir = path.Dir(dir)
		}
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// GenParams controls synthetic site generation.
type GenParams struct {
	// Objects is the total object count (the paper's live site holds
	// about 8700).
	Objects int
	// Seed makes generation deterministic.
	Seed int64
	// DynamicFraction is the fraction of objects that are CGI/ASP
	// (Workload B uses a significant dynamic share; Workload A uses 0).
	DynamicFraction float64
	// VideoFraction is the fraction of objects that are large video
	// files; per Arlitt & Jin, large files are ~0.3% of objects.
	VideoFraction float64
	// MeanStaticBytes is the body of the static size distribution; sizes
	// are lognormal around it with a bounded-Pareto tail.
	MeanStaticBytes int64
	// CriticalFraction of objects get Priority 1 (shopping pages etc.).
	CriticalFraction float64
}

// DefaultGenParams returns parameters shaped after the paper's cited
// workload characterizations and its live 8700-object site.
func DefaultGenParams() GenParams {
	return GenParams{
		Objects:          8700,
		Seed:             1,
		DynamicFraction:  0,
		VideoFraction:    0.003,
		MeanStaticBytes:  6 * 1024,
		CriticalFraction: 0.01,
	}
}

// GenerateSite synthesizes a site per p. The popularity ranking interleaves
// classes so that dynamic and static content both appear among hot objects,
// while video objects are pushed toward the cold tail (per Arlitt & Jin,
// large files receive ~0.1% of requests).
func GenerateSite(p GenParams) (*Site, error) {
	if p.Objects <= 0 {
		return nil, fmt.Errorf("content: non-positive object count %d", p.Objects)
	}
	if p.DynamicFraction < 0 || p.DynamicFraction > 1 {
		return nil, fmt.Errorf("content: dynamic fraction %g out of [0,1]", p.DynamicFraction)
	}
	if p.VideoFraction < 0 || p.VideoFraction+p.DynamicFraction > 1 {
		return nil, fmt.Errorf("content: video fraction %g invalid", p.VideoFraction)
	}
	if p.MeanStaticBytes <= 0 {
		p.MeanStaticBytes = 6 * 1024
	}
	rng := rand.New(rand.NewSource(p.Seed))

	nVideo := int(math.Round(float64(p.Objects) * p.VideoFraction))
	nDyn := int(math.Round(float64(p.Objects) * p.DynamicFraction))
	nStatic := p.Objects - nVideo - nDyn
	if nStatic < 0 {
		return nil, fmt.Errorf("content: fractions exceed object count")
	}

	// Build per-class pools, then interleave into a popularity ranking.
	static := make([]Object, 0, nStatic)
	for i := 0; i < nStatic; i++ {
		var o Object
		if rng.Float64() < 0.35 {
			o = Object{
				Path:  fmt.Sprintf("/docs/d%02d/page%05d.html", i%40, i),
				Class: ClassHTML,
			}
		} else {
			o = Object{
				Path:  fmt.Sprintf("/images/g%02d/img%05d.gif", i%40, i),
				Class: ClassImage,
			}
		}
		o.Size = staticSize(rng, p.MeanStaticBytes)
		static = append(static, o)
	}
	dynamic := make([]Object, 0, nDyn)
	for i := 0; i < nDyn; i++ {
		var o Object
		if i%2 == 0 {
			o = Object{Path: fmt.Sprintf("/cgi-bin/app%05d.cgi", i), Class: ClassCGI}
		} else {
			o = Object{Path: fmt.Sprintf("/asp/page%05d.asp", i), Class: ClassASP}
		}
		// Dynamic responses are small but computation dominates.
		o.Size = 2*1024 + rng.Int63n(6*1024)
		o.CPUCost = 0.5 + rng.ExpFloat64()*0.7
		if o.CPUCost > 6 {
			o.CPUCost = 6
		}
		dynamic = append(dynamic, o)
	}
	video := make([]Object, 0, nVideo)
	for i := 0; i < nVideo; i++ {
		video = append(video, Object{
			Path:  fmt.Sprintf("/video/v%04d.mpg", i),
			Class: ClassVideo,
			// Large files: 1–64 MB, log-uniform.
			Size: int64(math.Exp(math.Log(1<<20) + rng.Float64()*math.Log(64))),
		})
	}

	// Interleave static and dynamic through the ranking proportionally;
	// sprinkle video into the cold half only.
	objects := make([]Object, 0, p.Objects)
	si, di := 0, 0
	for si < len(static) || di < len(dynamic) {
		total := len(static) + len(dynamic)
		if si < len(static) && (di >= len(dynamic) || rng.Float64() < float64(len(static))/float64(total)) {
			objects = append(objects, static[si])
			si++
		} else {
			objects = append(objects, dynamic[di])
			di++
		}
	}
	// Insert each video object at a random position in the cold half.
	for _, v := range video {
		lo := len(objects) / 2
		pos := lo
		if len(objects) > lo {
			pos = lo + rng.Intn(len(objects)-lo+1)
		}
		objects = append(objects, Object{})
		copy(objects[pos+1:], objects[pos:])
		objects[pos] = v
	}
	// Mark the first CriticalFraction of static pages as critical.
	nCrit := int(float64(len(objects)) * p.CriticalFraction)
	for i := 0; i < len(objects) && nCrit > 0; i++ {
		if objects[i].Class == ClassHTML {
			objects[i].Priority = 1
			nCrit--
		}
	}
	return NewSite(objects)
}

// staticSize draws a static file size: lognormal body with a bounded-Pareto
// tail (Barford & Crovella), clamped to [128 B, 1 MB].
func staticSize(rng *rand.Rand, mean int64) int64 {
	var size float64
	if rng.Float64() < 0.93 {
		// Lognormal body around the mean.
		mu := math.Log(float64(mean)) - 0.5
		size = math.Exp(mu + rng.NormFloat64()*0.8)
	} else {
		// Pareto tail, alpha ≈ 1.1.
		const alpha = 1.1
		u := rng.Float64()
		size = float64(mean) * math.Pow(1-u, -1/alpha)
	}
	if size < 128 {
		size = 128
	}
	if size > 1<<20 {
		size = 1 << 20
	}
	return int64(size)
}
