// Rule-generation anti-entropy. A RELOAD is fanned to every shard
// exactly once; a shard that was dark at that moment comes back serving
// the old rule set, and the fleet has silently diverged. The breakers
// make the divergence invisible to routing (replicas answer anything),
// but it is fatal to session failover: the generation fence refuses to
// restore a checkpointed stream onto a shard whose rules differ from
// the checkpoint's exporter. The reconciler closes that gap from the
// gateway side: it remembers the last fleet-visible RELOAD (body and
// target generation), periodically probes each shard's generation with
// RULES-INFO, and re-drives the reload onto any shard that lags.
// Generations are per-shard monotonic counters, so "re-drive until
// gen >= target" converges even when a shard missed several reloads —
// the rules text is the same each time, and applying it is idempotent
// in content while bumping the counter.
package gateway

import (
	"time"

	"alveare/internal/server/client"
)

// reconciler is the background anti-entropy loop; it runs until the
// drain begins.
func (g *Gateway) reconciler() {
	t := time.NewTicker(g.cfg.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-g.Stopping():
			return
		case <-t.C:
			g.reconcileOnce()
		}
	}
}

// reconcileOnce probes every shard the breakers admit and re-drives the
// remembered reload onto those that lag the target generation. It
// returns the number of shards it converged (also counted into
// gateway.reload.reconciled); tests drive it directly to avoid timing
// races.
func (g *Gateway) reconcileOnce() int {
	g.reconMu.Lock()
	rules := g.reconRules
	target := g.reconGen
	g.reconMu.Unlock()
	if rules == nil {
		// No reload has succeeded anywhere yet: there is no target state
		// to converge on.
		return 0
	}
	fixed := 0
	for i := 0; i < g.bs.Len(); i++ {
		if g.bs.State(i) == client.BreakerOpen {
			// A dead shard rejoins through the prober first; probing it
			// here would just burn timeouts.
			continue
		}
		info, err := g.bs.Client(i).RulesInfoCtx(g.Context())
		if err != nil || info.Generation >= target {
			continue
		}
		_, _, rerr := g.bs.Client(i).ReloadCtx(g.Context(), string(rules))
		if rerr != nil {
			// Still unhealthy; the next tick retries.
			continue
		}
		g.met.reconciled.Inc()
		fixed++
	}
	return fixed
}
