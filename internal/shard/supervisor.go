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
		r.cfg.Log.Info("worker died, supervisor taking over", "shard", s.id, "err", proc.waitError())
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
			r.cfg.Log.Info("worker permanently down", "shard", s.id, "attempt", *attempts)
			return nil, false
		}
		backoff := r.cfg.RestartBackoff << *attempts
		if backoff > r.cfg.RestartBackoffMax || backoff <= 0 {
			backoff = r.cfg.RestartBackoffMax
		}
		*attempts++
		r.cfg.Log.Info("respawning worker", "shard", s.id, "backoff", backoff,
			"attempt", *attempts, "restart_max", r.cfg.RestartMax)
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
			r.cfg.Log.Info("respawn failed", "shard", s.id, "attempt", *attempts, "err", err)
			continue
		}
		u, err := normalizeURL(addr)
		if err != nil {
			proc.cmd.Process.Kill()
			r.cfg.Log.Info("respawned worker reported a bad address", "shard", s.id, "url", addr, "err", err)
			continue
		}
		s.adopt(proc, u)
		s.restarts.Add(1)
		r.cfg.Log.Info("worker respawned", "shard", s.id, "url", u, "pid", proc.cmd.Process.Pid)
		return proc, true
	}
}
