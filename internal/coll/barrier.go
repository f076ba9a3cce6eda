package coll

// Barrier blocks until every rank has entered it: a dissemination barrier
// in ceil(log2 n) rounds. In round k each rank sends a token to the rank
// 2^k ahead of it and consumes one from the rank 2^k behind. Tokens are
// counting signals, so back-to-back barriers cannot confuse one another:
// each (sender, receiver) pair's tokens are consumed in the order sent.
func (c *Comm) Barrier(p *simProc) error {
	n := c.g.n
	if n == 1 {
		return nil
	}
	eng := c.proc.Node.Eng
	eng.TraceBegin(c.comp, "coll", "barrier")
	defer eng.TraceEnd(c.comp, "coll", "barrier")
	for dist := 1; dist < n; dist <<= 1 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		c.step("barrier_round")
		if err := c.token(p, to); err != nil {
			return err
		}
		c.waitToken(p, from)
	}
	c.g.m.barriers.Add(1)
	return nil
}
