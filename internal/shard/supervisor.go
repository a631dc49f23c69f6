package shard

import "time"

// healthyRunFactor × RestartBackoff is how long a respawned worker must
// stay up for the supervisor to consider the restart successful and reset
// the consecutive-restart budget. Shorter runs are crash loops: each one
// consumes an attempt, so a worker that dies RestartMax times in quick
// succession is marked permanently down instead of flapping forever.
const healthyRunFactor = 10

// superviseSpawned starts one supervisor goroutine per spawned shard.
// Called once by Spawn, after the router is constructed; attached shards
// (no process) are not supervised. RestartMax < 0 disables supervision —
// a dead worker then stays dead, as before the supervisor existed.
func (r *Router) superviseSpawned() {
	if r.cfg.RestartMax < 0 {
		return
	}
	for _, s := range r.shards {
		if s.currentProc() == nil {
			continue
		}
		r.superWG.Add(1)
		go r.supervise(s)
	}
}

// supervise watches one spawned worker and respawns it when it exits. The
// loop runs until the router shuts down or the shard exhausts its restart
// budget. Each death → backoff → respawn cycle consumes one attempt from a
// budget of RestartMax; a run longer than healthyRunFactor×RestartBackoff
// refills it. The respawned worker rejoins placement through the circuit
// breaker: the supervisor only installs the new process and URL, and the
// next successful health probe re-admits the shard.
func (r *Router) supervise(s *shardState) {
	defer r.superWG.Done()
	proc := s.currentProc()
	started := time.Now()
	attempts := 0
	for {
		select {
		case <-proc.waited:
		case <-r.stop:
			return
		}
		// stop wins ties: an exit caused by the shutdown drain is not a
		// crash, and respawning during drain would orphan a worker.
		select {
		case <-r.stop:
			return
		default:
		}
		if time.Since(started) >= healthyRunFactor*r.cfg.RestartBackoff {
			attempts = 0
		}
		r.cfg.Log.Logf("shard: worker %d died (%v); supervisor taking over", s.id, proc.waitError())
		var ok bool
		proc, ok = r.respawn(s, &attempts)
		if !ok {
			return
		}
		started = time.Now()
	}
}

// respawn retries startWorker under exponential backoff until a fresh
// worker reports its address or the restart budget runs out — in which
// case the shard is marked permanently down and (nil, false) is returned.
// The router keeps serving through the remaining shards either way.
func (r *Router) respawn(s *shardState, attempts *int) (*workerProc, bool) {
	for {
		if *attempts >= r.cfg.RestartMax {
			s.markDown()
			r.cfg.Log.Logf("shard: worker %d permanently down after %d consecutive restart attempts",
				s.id, *attempts)
			return nil, false
		}
		backoff := r.cfg.RestartBackoff << *attempts
		if backoff > r.cfg.RestartBackoffMax || backoff <= 0 {
			backoff = r.cfg.RestartBackoffMax
		}
		*attempts++
		r.cfg.Log.Logf("shard: respawning worker %d in %v (attempt %d/%d)",
			s.id, backoff, *attempts, r.cfg.RestartMax)
		select {
		case <-time.After(backoff):
		case <-r.stop:
			return nil, false
		}
		proc, addr, err := startWorker(r.bin, r.binArgs, s.id, r.cfg.Log, r.stop)
		if err != nil {
			select {
			case <-r.stop: // shutdown canceled the spawn; not a failed attempt
				return nil, false
			default:
			}
			r.cfg.Log.Logf("shard: respawn of worker %d failed: %v", s.id, err)
			continue
		}
		u, err := normalizeURL(addr)
		if err != nil {
			proc.cmd.Process.Kill()
			r.cfg.Log.Logf("shard: respawned worker %d reported bad address %q: %v", s.id, addr, err)
			continue
		}
		s.adopt(proc, u)
		s.restarts.Add(1)
		r.cfg.Log.Logf("shard: worker %d respawned at %s (pid %d)", s.id, u, proc.cmd.Process.Pid)
		return proc, true
	}
}
