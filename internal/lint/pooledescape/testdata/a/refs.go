// Reference-counted values: every pointer to a distlint:refcounted type a
// call returns is a reference, multi-value calls included, held to one
// release after its last use. An error returned beside the reference is a
// nil guard, and passing the reference to a call in a return statement
// lends it without handing it over.
package fixture

// Ref is a counted reference to shared, recyclable memory.
//
// distlint:refcounted
type Ref struct{ n int }

type cache struct{}

func (c *cache) Get(key string) (*Ref, bool) { return nil, false }
func (c *cache) Wait() (*Ref, error)         { return nil, errTest }
func (c *cache) Release(r *Ref)              {}

func serve(r *Ref) int { return r.n }

// --- flagged ---

func refDropped(c *cache) int {
	r, _ := c.Get("k")
	return serve(r) // want `pooled value "r" is not released on this return path`
}

func refReleasedBeforeServe(c *cache) int {
	r, _ := c.Get("k")
	c.Release(r)
	return serve(r) // want `use of pooled value "r" after release`
}

func refReleasedTwice(c *cache) {
	r, err := c.Wait()
	if err != nil {
		return
	}
	defer c.Release(r)
	c.Release(r) // want `pooled value "r" released twice \(already released by defer\)`
}

// --- allowed ---

func refDeferred(c *cache) int {
	r, _ := c.Get("k")
	defer c.Release(r)
	return serve(r)
}

func refErrGuard(c *cache) int {
	r, err := c.Wait()
	if err != nil {
		return 0
	}
	defer c.Release(r)
	return serve(r)
}

func refHandedOver(c *cache) *Ref {
	r, _ := c.Get("k")
	return r
}
