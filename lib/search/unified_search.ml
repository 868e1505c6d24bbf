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
  r_explored : int;
  r_rejected : int;
  r_quarantined : (string * Nas_error.t) list;
  r_evaluated : int;
  r_complete : bool;
  r_checkpoint_error : Nas_error.t option;
  r_wall_s : float;
}

let random_plans rng model ~mutate_prob =
  Array.map
    (fun site ->
      if Rng.uniform rng < mutate_prob then begin
        match Sequences.standard_menu site with
        | [] -> Site_plan.baseline
        | menu -> Sequences.plan (Rng.choice_list rng menu)
      end
      else Site_plan.baseline)
    model.Models.sites

let plans_signature plans =
  String.concat ";" (Array.to_list (Array.map (fun p -> p.Site_plan.sp_name) plans))

(* Quarantine output is sorted by plan signature so failure attribution is
   deterministic and diffable across runs and worker counts. *)
let sort_quarantine q = List.sort (fun (a, _) (b, _) -> compare a b) q

(* One shared rebuild seed per search: candidates share the weights of every
   layer they have in common with the reference network (label-addressed
   initialization), so Fisher differences measure structure, not seed
   noise.  The reference and every candidate are scored through the
   context's one memoized oracle ({!Eval_ctx.fisher_scores}), whose key
   embeds the network and the rebuild seed so searches sharing a context
   never collide — and a second search of the same network from the same
   seed (another device) only hits. *)
type fisher_oracle = {
  fo_reference : Fisher.scores;
  fo_seed : int;
}

let make_oracle ctx rng model probe =
  let fo_seed = Rng.int rng 1_000_000_000 in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  { fo_reference = Eval_ctx.fisher_scores ctx ~seed:fo_seed model probe full; fo_seed }

(* Aggressiveness varies per candidate, so the pool spans mild touch-ups to
   whole-network rewrites. *)
let draw_mutate_prob rng base = Float.min 1.0 (base +. Rng.float rng 0.8)

(* Directed seed candidates: each named sequence applied uniformly across
   the network (with per-site fallback to baseline when invalid).  These
   cover the corners a modest random pool can miss and subsume the
   single-block NAS configurations. *)
let uniform_candidates model =
  let menu_union =
    Array.fold_left
      (fun acc site ->
        List.fold_left
          (fun acc seq ->
            let name = Sequences.name seq in
            if List.mem_assoc name acc then acc else (name, seq) :: acc)
          acc (Sequences.standard_menu site))
      [] model.Models.sites
  in
  List.map
    (fun (_, seq) ->
      Array.map
        (fun site ->
          if Sequences.valid site seq then Sequences.plan seq else Site_plan.baseline)
        model.Models.sites)
    menu_union

let fallback_candidate model baseline baseline_fisher =
  { cd_plans = Array.map (fun _ -> Site_plan.baseline) model.Models.sites;
    cd_fisher = baseline_fisher;
    cd_latency_s = baseline.Pipeline.ev_latency_s;
    cd_macs = baseline.Pipeline.ev_macs;
    cd_params = baseline.Pipeline.ev_params }

(* The pregenerated pool of the [Random] and [Typed] strategies: the
   directed seeds, filled up with rejection-sampled coin flips ([Random])
   or well-typed-by-construction candidates ([Typed]). *)
let generate_pool strategy rng model ~candidates ~mutate_prob =
  let seeds = uniform_candidates model in
  let fill () =
    match strategy with
    | Strategy.Typed -> Strategy.typed_plans rng model
    | Strategy.Random | Strategy.Guided ->
        random_plans rng model ~mutate_prob:(draw_mutate_prob rng mutate_prob)
  in
  Array.of_list
    (seeds @ List.init (max 0 (candidates - List.length seeds)) (fun _ -> fill ()))

(* Evaluate one candidate under guards and (optional) injected faults read
   from [ctx].  [Some cand] = survivor, [None] = Fisher-rejected (a healthy
   outcome); every failure mode raises a structured {!Nas_error.Fail} for
   the caller to quarantine. *)
let eval_candidate ~slack ~oracle ~device ~probe ~prepared model ctx index plans =
  let obs = Eval_ctx.obs ctx in
  let fault = Eval_ctx.fault ctx in
  if Fault.trip fault ~key:index Fault.Plan_gen then
    Nas_error.fail (Nas_error.Injected_fault "plan generation");
  Obs.with_span obs "legality" (fun () ->
      (* Both counters are per-index integer adds, hence deterministic
         across worker counts. *)
      Obs.incr obs "analysis.static_checked";
      match Static_check.candidate model plans with
      | Some (i, _diags) ->
          Obs.incr obs "analysis.static_reject";
          Nas_error.invalid_plan "candidate %d: plan %s invalid for %s" index
            plans.(i).Site_plan.sp_name model.Models.sites.(i).Conv_impl.site_label
      | None -> ());
  let legal_total =
    Obs.with_span obs "fisher" (fun () ->
        let scores =
          Eval_ctx.fisher_scores ctx ~seed:oracle.fo_seed model probe
            (Array.map (fun p -> p.Site_plan.sp_impl) plans)
        in
        let total =
          Fault.corrupt_float fault ~key:index Fault.Fisher_oracle scores.Fisher.total
        in
        let total = Guard.check_float ~source:Nas_error.Fisher_score total in
        ignore (Guard.check_array ~source:Nas_error.Fisher_score scores.Fisher.per_site);
        if Fisher.legal_clipped ~slack ~baseline:oracle.fo_reference scores then
          Some total
        else None)
  in
  match legal_total with
  | None -> None
  | Some total ->
      Obs.with_span obs "cost" (fun () ->
          let ev = Pipeline.evaluate_prepared ~ctx device prepared ~plans in
          let latency =
            Fault.corrupt_float fault ~key:index Fault.Cost_oracle
              ev.Pipeline.ev_latency_s
          in
          let latency = Guard.check_float ~source:Nas_error.Cost_model latency in
          Some
            { cd_plans = plans;
              cd_fisher = total;
              cd_latency_s = latency;
              cd_macs = ev.ev_macs;
              cd_params = ev.ev_params })

(* The ways one candidate evaluation can end.  The first three are pure
   per-index values, so replaying them in index order merges to the same
   incumbent / rejection count / quarantine set no matter how many worker
   domains produced them.  [O_skipped] only appears when a [?stop] hook
   fired — a stopped run returns its best-so-far and makes no determinism
   claim beyond that. *)
type outcome =
  | O_survivor of candidate
  | O_rejected
  | O_failed of string * Nas_error.t
  | O_skipped

(* Telemetry is recorded on [ctx]'s recorder — the worker's fork in a
   parallel run — right here, next to the candidate's spans: counters
   merge exactly (integer adds) and quarantine notes ride between the
   spans, so the merged trace and the [search.*] counters are identical
   for every worker count. *)
let eval_outcome ~slack ~oracle ~device ~probe ~prepared model ctx index plans =
  let obs = Eval_ctx.obs ctx in
  match
    Nas_error.guard (fun () ->
        eval_candidate ~slack ~oracle ~device ~probe ~prepared model ctx index plans)
  with
  | Ok (Some cand) ->
      Obs.incr obs "search.cost_ranked";
      O_survivor cand
  | Ok None ->
      Obs.incr obs "search.fisher_rejected";
      O_rejected
  | Error e ->
      Obs.incr obs "search.quarantined";
      Obs.note obs ~detail:(Nas_error.class_name e) "quarantine";
      O_failed (plans_signature plans, e)

(* --- checkpoint/resume -------------------------------------------------- *)

(* The pool is regenerated deterministically from the caller's RNG on
   resume, so the checkpoint only carries progress: the next pool index,
   the counters, the incumbent and the quarantine list.  [ck_key] rejects
   checkpoints from a different configuration — including another seed,
   through the oracle's rebuild seed and a digest of the pool itself. *)
type ckpt_state = {
  ck_key : string;
  ck_done : int;
  ck_rejected : int;
  ck_best : candidate option;
  ck_quarantine : (string * Nas_error.t) list;  (* newest first *)
}

let ckpt_key strategy model device ~slack ~oracle pool =
  Printf.sprintf "%s|%s|%s|%d|%g|%d|%s" (Strategy.to_string strategy)
    model.Models.name device.Device.short_name (Array.length pool) slack
    oracle.fo_seed
    (Digest.to_hex
       (Digest.string (String.concat "\n" (Array.to_list (Array.map plans_signature pool)))))

let load_checkpoint path key =
  match Checkpoint.load ~path with
  | Ok st when st.ck_key = key -> Some st
  | Ok _ | Error _ -> None

(* End-of-search snapshots of the engine's own accumulators.  These are
   [set], not [incr]: a context reused across searches reports its
   cumulative state.  The [cache.*] values depend on how workers split the
   pool (each fork starts with cold caches), so they are deliberately
   outside the deterministic [search.*] namespace. *)
let snapshot_engine_counters ctx =
  let obs = Eval_ctx.obs ctx in
  if Obs.enabled obs then begin
    let cs = Eval_ctx.cost_stats ctx in
    Obs.set obs "cache.cost.hits" cs.Bounded_cache.cs_hits;
    Obs.set obs "cache.cost.misses" cs.cs_misses;
    Obs.set obs "cache.cost.evictions" cs.cs_evictions;
    Obs.set obs "cache.cost.size" cs.cs_size;
    let fs = Eval_ctx.fisher_stats ctx in
    Obs.set obs "cache.fisher.hits" fs.Bounded_cache.cs_hits;
    Obs.set obs "cache.fisher.misses" fs.cs_misses;
    Obs.set obs "cache.fisher.evictions" fs.cs_evictions;
    Obs.set obs "cache.fisher.size" fs.cs_size;
    Obs.set obs "engine.tune_configs" (Eval_ctx.tune_configs ctx);
    Obs.set obs "engine.faults_injected" (Fault.injected (Eval_ctx.fault ctx))
  end

(* --- guided beam search ------------------------------------------------- *)

(* How many candidates a guided round evaluates, and how many Pareto-front
   members seed the next round.  Small rounds keep the front fresh (later
   rounds see more evaluated survivors); eight extensions per round keeps
   a worker pool busy without outrunning the front. *)
let guided_round_size = 8
let guided_beam_width = 4

(* Next guided round: extend the Pareto front of everything that survived
   so far by one typed site edit each, then top the round up with fresh
   mild typed candidates.  All RNG draws happen here on the main domain,
   so the round sequence is a pure function of the evaluation outcomes —
   deterministic for every worker count. *)
let guided_next_round rng model ~seen ~survivors ~room =
  let fresh plans =
    let s = plans_signature plans in
    if Hashtbl.mem seen s then false
    else begin
      Hashtbl.add seen s ();
      true
    end
  in
  let points =
    List.mapi
      (fun j c ->
        { Pareto.pt_name = string_of_int j;
          pt_latency_s = c.cd_latency_s;
          pt_accuracy = c.cd_fisher })
      survivors
  in
  let front = Pareto.front points in
  let beam =
    List.filteri (fun k _ -> k < guided_beam_width) front
    |> List.map (fun (p : Pareto.point) ->
           (List.nth survivors (int_of_string p.Pareto.pt_name)).cd_plans)
  in
  let extensions =
    List.concat_map
      (fun plans ->
        List.filter_map
          (fun () ->
            match Strategy.extend_plans rng model plans with
            | Some next when fresh next -> Some next
            | Some _ | None -> None)
          [ (); () ])
      beam
  in
  let target = min room guided_round_size in
  let rec top_up acc need attempts =
    if need <= 0 || attempts <= 0 then List.rev acc
    else
      let plans = Strategy.typed_plans rng model in
      if fresh plans then top_up (plans :: acc) (need - 1) (attempts - 1)
      else top_up acc need (attempts - 1)
  in
  let extensions = List.filteri (fun k _ -> k < target) extensions in
  extensions @ top_up [] (target - List.length extensions) (8 * target)

(* The guided candidate source: the directed seeds first, then one
   {!guided_next_round} per call, each capped at the room left under
   [limit].  An empty batch ends the search. *)
let guided_batches rng model ~limit =
  let seen = Hashtbl.create 64 in
  let seeds = uniform_candidates model in
  List.iter (fun plans -> Hashtbl.replace seen (plans_signature plans) ()) seeds;
  fun ~at ~survivors ->
    let room = limit - at in
    if room <= 0 then [||]
    else
      let round =
        if at = 0 && seeds <> [] then seeds
        else guided_next_round rng model ~seen ~survivors ~room
      in
      Array.of_list (List.filteri (fun k _ -> k < room) round)

let search ?(candidates = 1000) ?(mutate_prob = 0.25) ?(slack = 0.12)
    ?(stop = fun () -> false) ?fault ?budget ?checkpoint ?checkpoint_every
    ?(workers = 1) ?(schedule = Parallel_eval.Dynamic) ?on_sched_stats
    ?(strategy = Strategy.Random) ?ctx ~rng ~device ~probe model =
  let start = Unix.gettimeofday () in
  (* Resolve the context: explicit knob arguments override the context's,
     which override the defaults. *)
  let ctx =
    Eval_ctx.with_knobs ?fault ?budget ?checkpoint ?checkpoint_every
      (Eval_ctx.with_device
         (match ctx with Some c -> c | None -> Eval_ctx.default ())
         device)
  in
  let guided = strategy = Strategy.Guided in
  let budget = Eval_ctx.budget ctx in
  (* A guided run's round state is cheap to recompute and the run is
     budget-capped anyway, so only the pool strategies checkpoint. *)
  let checkpoint = if guided then None else Eval_ctx.checkpoint ctx in
  let checkpoint_every = Eval_ctx.checkpoint_every ctx in
  let obs = Eval_ctx.obs ctx in
  Obs.with_span obs "search" @@ fun () ->
  (* Candidate-independent setup, hoisted out of the per-candidate hot
     loop: scaled sites and fixed workload dims are computed once per
     search and shared (immutably) by every worker domain. *)
  let prepared = Pipeline.prepare model in
  let baseline =
    Obs.with_span obs "baseline" (fun () ->
        Pipeline.evaluate_prepared ~ctx device prepared
          ~plans:(Array.map (fun _ -> Site_plan.baseline) model.Models.sites))
  in
  let oracle, pool =
    Obs.with_span obs "generate" (fun () ->
        let oracle = make_oracle ctx rng model probe in
        (* Guided rounds are generated during evaluation. *)
        let pool =
          if guided then [||]
          else generate_pool strategy rng model ~candidates ~mutate_prob
        in
        (oracle, pool))
  in
  let baseline_fisher = oracle.fo_reference.Fisher.total in
  let n = if guided then candidates else Array.length pool in
  let key = ckpt_key strategy model device ~slack ~oracle pool in
  let resumed =
    match checkpoint with Some path -> load_checkpoint path key | None -> None
  in
  let first, rejected0, best0, quarantine0 =
    match resumed with
    | Some st -> (min st.ck_done n, st.ck_rejected, st.ck_best, st.ck_quarantine)
    | None -> (0, 0, None, [])
  in
  let rejected = ref rejected0 in
  let best = ref best0 in
  let quarantine_rev = ref quarantine0 in
  let survivors_rev = ref [] in
  let checkpoint_error = ref None in
  let save_checkpoint done_ =
    match checkpoint with
    | None -> ()
    | Some path -> (
        match
          Checkpoint.save ~path
            { ck_key = key;
              ck_done = done_;
              ck_rejected = !rejected;
              ck_best = !best;
              ck_quarantine = !quarantine_rev }
        with
        | Ok () -> ()
        | Error e -> if !checkpoint_error = None then checkpoint_error := Some e)
  in
  (* The budget caps cumulative evaluations (resumed progress included), so
     the range of indices to process this run is known up front. *)
  let limit = match budget with Some b -> min n (max first b) | None -> n in
  (* Batches: a guided round at a time, or the next slice of the pool — cut
     at every [checkpoint_every] boundary when checkpointing, so periodic
     snapshots land at the same indices for every worker count. *)
  let next_batch =
    if guided then guided_batches rng model ~limit
    else fun ~at ~survivors:_ ->
      let stop_at =
        if checkpoint = None then limit
        else min limit ((at / checkpoint_every + 1) * checkpoint_every)
      in
      Array.sub pool at (max 0 (stop_at - at))
  in
  let processed = ref 0 in
  let first_skip = ref None in
  (* Outcomes are replayed in index order.  Everything past the first
     skipped index is dropped: that index is the resume point, and a
     resumed run re-evaluates (deterministically) what lies beyond it. *)
  let merge_outcome i o =
    if !first_skip = None then
      match o with
      | O_skipped -> first_skip := Some i
      | O_survivor cand ->
          incr processed;
          survivors_rev := cand :: !survivors_rev;
          (match !best with
          | Some b when b.cd_latency_s <= cand.cd_latency_s -> ()
          | _ -> best := Some cand)
      | O_rejected ->
          incr processed;
          incr rejected
      | O_failed (label, e) ->
          incr processed;
          quarantine_rev := (label, e) :: !quarantine_rev
  in
  (* The [stop] hook is polled once per candidate, from whichever domain
     evaluates it (so it must be domain-safe); once it fires, the latch
     skips every later candidate without polling again. *)
  let halted = Atomic.make false in
  let evaluate batch at wctx i =
    if Atomic.get halted || (stop () && (Atomic.set halted true; true)) then O_skipped
    else
      eval_outcome ~slack ~oracle ~device ~probe ~prepared model wctx i batch.(i - at)
  in
  let on_stats = if workers > 1 then on_sched_stats else None in
  let rec loop at =
    match next_batch ~at ~survivors:(List.rev !survivors_rev) with
    | [||] -> at
    | batch ->
        (* Every batch goes through the one evaluator: a plain sequential
           map at [workers <= 1], otherwise per-domain context forks under
           the chosen schedule, with outcomes returned in index order. *)
        let next = at + Array.length batch in
        Array.iteri
          (fun off o -> merge_outcome (at + off) o)
          (Parallel_eval.map_range ~schedule ?on_stats ~workers ~ctx ~first:at
             ~limit:next (evaluate batch at));
        if !first_skip <> None then next
        else begin
          if next mod checkpoint_every = 0 && next < n then save_checkpoint next;
          loop next
        end
  in
  let reached = Obs.with_span obs "evaluate" (fun () -> loop first) in
  let explored = if guided then reached else n in
  (* The [search.*] counters are the deterministic namespace: every value
     below is a pure function of the search configuration, so they are
     bit-identical across worker counts (unlike [cache.*] hit rates, which
     depend on how the pool was split). *)
  Obs.set obs "search.generated" explored;
  Obs.set obs "search.resumed" first;
  save_checkpoint (Option.value !first_skip ~default:reached);
  let best_cand =
    Obs.with_span obs "select" (fun () ->
        match !best with
        | Some b -> b
        | None -> fallback_candidate model baseline baseline_fisher)
  in
  snapshot_engine_counters ctx;
  { r_best = best_cand;
    r_baseline = baseline;
    r_baseline_fisher = baseline_fisher;
    r_explored = explored;
    r_rejected = !rejected;
    r_quarantined = sort_quarantine !quarantine_rev;
    r_evaluated = !processed;
    r_complete = limit >= n && !first_skip = None;
    r_checkpoint_error = !checkpoint_error;
    r_wall_s = Unix.gettimeofday () -. start }

let speedup r = r.r_baseline.Pipeline.ev_latency_s /. r.r_best.cd_latency_s

let quarantine_counts r = Nas_error.count_classes r.r_quarantined

let search_multi ?candidates ?mutate_prob ?slack ?ctx ~rng ~devices ~probe model =
  let ctx = match ctx with Some c -> c | None -> Eval_ctx.default () in
  List.map
    (fun device ->
      ( device,
        search ?candidates ?mutate_prob ?slack ~ctx ~rng:(Rng.copy rng) ~device ~probe
          model ))
    devices
