(** The paper's unified search (§6): enumerate random interleaved
    transformation sequences, reject capacity-damaging candidates with the
    Fisher Potential legality check (no training), and rank the survivors
    with the autotuned hardware cost model.

    Candidate evaluation is supervised: a malformed plan, a non-finite
    Fisher score or a cost-model divergence quarantines that one candidate
    (recorded with a structured {!Nas_error.t}) and the search continues to
    a valid survivor.  A deterministic fault-injection layer ({!Fault}) and
    checkpoint/resume make the degradation path testable and an
    interrupted search resumable. *)

type candidate = {
  cd_plans : Site_plan.t array;
  cd_fisher : float;
  cd_latency_s : float;
  cd_macs : int;
  cd_params : int;
}

type result = {
  r_best : candidate;
  r_baseline : Pipeline.evaluated;
  r_baseline_fisher : float;
  r_explored : int;  (** configurations generated *)
  r_rejected : int;  (** configurations rejected by the Fisher check *)
  r_quarantined : (string * Nas_error.t) list;
      (** failed candidates: (plan signature, structured error), sorted by
          signature so the attribution output is deterministic and
          diffable across runs and worker counts *)
  r_evaluated : int;  (** configurations processed in this run *)
  r_complete : bool;  (** false iff the run stopped on its work budget *)
  r_checkpoint_error : Nas_error.t option;
      (** first checkpoint-write failure, if any — the search itself is
          unaffected, but resume will not be possible *)
  r_wall_s : float;  (** search wall-clock time *)
}

val random_plans :
  Rng.t -> Models.t -> mutate_prob:float -> Site_plan.t array
(** One candidate configuration: each site is left at baseline or assigned a
    random valid sequence from {!Sequences.standard_menu} with probability
    [mutate_prob]. *)

val plans_signature : Site_plan.t array -> string
(** The per-site plan names joined with [";"] — the key used for
    quarantine attribution and the checkpoint's pool digest.  (The Fisher
    memo is keyed on the implementation vector instead; see
    {!Eval_ctx.fisher_scores}.) *)

val search :
  ?candidates:int ->
  ?mutate_prob:float ->
  ?slack:float ->
  ?stop:(unit -> bool) ->
  ?fault:Fault.t ->
  ?budget:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?workers:int ->
  ?schedule:Parallel_eval.schedule ->
  ?on_sched_stats:(Parallel_eval.run_stats -> unit) ->
  ?strategy:Strategy.t ->
  ?ctx:Eval_ctx.t ->
  rng:Rng.t ->
  device:Device.t ->
  probe:Train.batch ->
  Models.t ->
  result
(** Runs the search (default 1000 candidates, as in §6).  [probe] is the
    fixed minibatch used for every Fisher evaluation; [slack] is the Fisher
    legality slack.

    One evaluation loop serves every strategy: the candidates arrive in
    batches (slices of a pregenerated pool, or guided rounds) and each
    batch goes through {!Parallel_eval.map_range}.  Every candidate is
    first vetted by the static analyzer ({!Static_check.candidate}), which
    bumps the deterministic [analysis.static_checked] /
    [analysis.static_reject] counters that {!Report} surfaces as the
    static-vs-Fisher rejection split; survivors of that step are scored
    through the context's memoized Fisher oracle
    ({!Eval_ctx.fisher_scores}), which also scores the reference network.

    [stop] (default: never) is a cooperative cancellation hook polled
    between candidate evaluations — the daemon installs a deadline
    watchdog here.  Once it returns true the run stops, returns its
    best-so-far incumbent with [r_complete = false], and saves a resumable
    checkpoint at the first unprocessed index.  With [workers > 1] the
    hook is polled from every worker domain, so it must be domain-safe
    (e.g. {!Deadline.expired} on the shared monotonic clock); cancellation
    is at candidate granularity, and once the hook fires it is not polled
    again.  A run whose hook never fires is bit-identical to one without
    a hook.

    [ctx] (default: the process default context) owns the memo caches and
    the default evaluation knobs; an explicit [fault] / [budget] /
    [checkpoint] / [checkpoint_every] argument overrides the context's.

    [workers] (default 1) evaluates the candidate pool on that many OCaml 5
    domains, each against its own context fork.  Outcomes are merged in
    candidate-index order, so any worker count returns the identical best
    candidate, rejection count and (sorted) quarantine list; per-worker
    cache and fault telemetry is folded back into [ctx].  [workers = 1]
    is a plain sequential map with zero scheduling overhead.

    [schedule] (default {!Parallel_eval.Dynamic}) picks how candidates are
    assigned to worker domains: [Dynamic] has idle domains pull the next
    unclaimed index (skewed per-candidate costs rebalance automatically),
    [Static] assigns fixed contiguous chunks.  Results, [search.*]
    counters and trace content are bit-identical for either schedule.

    [on_sched_stats] (parallel runs only) receives the scheduler's
    per-worker item/steal/busy accounting after each evaluation batch —
    timing-dependent telemetry, deliberately outside the deterministic
    result; BENCH_search.json records it as per-worker utilization.

    [fault] (default {!Fault.none}) injects deterministic faults into the
    Fisher oracle / cost model / plan generation; the corrupted candidates
    are quarantined and the search still completes.

    [budget] caps cumulative candidate evaluations; on exhaustion the
    search saves a checkpoint (if [checkpoint] is set), returns its
    incumbent and reports [r_complete = false].

    [checkpoint] names a snapshot file: progress is saved every
    [checkpoint_every] candidates (default 25, at the same indices for any
    [workers] count) and an existing compatible snapshot is resumed
    instead of restarting.  The candidate pool is regenerated
    deterministically from [rng], so a resumed search reproduces the
    uninterrupted run's best candidate.  A snapshot is compatible only
    with the same strategy, network, device, pool size, slack, rebuild
    seed and pool contents, so a run with another seed starts fresh.

    [strategy] (default {!Strategy.Random}) picks the candidate
    generator.  [Random] keeps the historical pool — directed seeds plus
    rejection-sampled coin flips — bit-identical to runs predating this
    argument for any [workers] count or [schedule] (asserted by a test).
    [Typed] keeps the seeds and fills the pool with
    well-typed-by-construction candidates drawn from the rule-inverted
    {!Sequences.typed_menu}; the pool is still deterministic in [rng], so
    checkpointing and parallel evaluation behave exactly as for [Random].
    [Guided] replaces the precomputed pool with beam rounds: directed
    seeds first, then each round resamples one site of each Pareto-front
    member (latency vs. Fisher, {!Pareto.front}) of the survivors so far,
    topping up with fresh typed candidates; rounds stop at [candidates]
    (or [budget]) cumulative evaluations.  Guided runs honor
    [stop], [budget], [workers] and [schedule] (deterministic merge as
    above) but ignore [checkpoint] — [r_checkpoint_error] is always
    [None]; [r_explored] counts the candidates actually generated. *)

val speedup : result -> float
(** Baseline latency over best-candidate latency. *)

val quarantine_counts : result -> (string * int) list
(** Per-error-class quarantine counts (see {!Nas_error.class_name}). *)

val search_multi :
  ?candidates:int ->
  ?mutate_prob:float ->
  ?slack:float ->
  ?ctx:Eval_ctx.t ->
  rng:Rng.t ->
  devices:Device.t list ->
  probe:Train.batch ->
  Models.t ->
  (Device.t * result) list
(** {!search} once per device, each from a copy of [rng] and all on one
    shared context ([ctx], default: the process default context).  Every
    device regenerates the same pool and rebuild seed, so the Fisher work
    (the expensive part) is paid by the first device and every later one
    only hits the Fisher memo; the cost ranking is per device.  Each
    device's [r_wall_s] is that device's own search, so the first device's
    includes the shared Fisher work.  [rng] itself is not advanced. *)
