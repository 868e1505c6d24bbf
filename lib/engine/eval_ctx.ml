type t = {
  ec_device : Device.t;
  ec_cost_cache : float Bounded_cache.t;
  ec_fisher_cache : Fisher.scores Bounded_cache.t;
  ec_fault : Fault.t;
  ec_budget : int option;
  ec_checkpoint : string option;
  ec_checkpoint_every : int;
  ec_obs : Obs.t;
  (* A shared ref, not a mutable field: derived views ([with_device],
     [with_knobs], [with_obs]) are record copies that must keep feeding
     the same accumulator. *)
  ec_tune_configs : int ref;
}

let create ?(cache_capacity = 8192) ?(fisher_capacity = 4096) ?(fault = Fault.none)
    ?budget ?checkpoint ?(checkpoint_every = 25) ?(device = Device.i7)
    ?(obs = Obs.disabled) () =
  { ec_device = device;
    ec_cost_cache = Bounded_cache.create ~capacity:cache_capacity ();
    ec_fisher_cache = Bounded_cache.create ~capacity:fisher_capacity ();
    ec_fault = fault;
    ec_budget = budget;
    ec_checkpoint = checkpoint;
    ec_checkpoint_every = checkpoint_every;
    ec_obs = obs;
    ec_tune_configs = ref 0 }

(* The one piece of module-level mutable state left in the system: the
   context behind the legacy (context-free) wrappers.  Workers never touch
   it — parallel evaluation always runs on explicit forks. *)
let default_ctx : t option ref = ref None

let default () =
  match !default_ctx with
  | Some c -> c
  | None ->
      let c = create () in
      default_ctx := Some c;
      c

let with_device t device = { t with ec_device = device }

let with_obs t obs = { t with ec_obs = obs }

let with_knobs ?fault ?budget ?checkpoint ?checkpoint_every t =
  { t with
    ec_fault = (match fault with Some f -> f | None -> t.ec_fault);
    ec_budget = (match budget with Some _ -> budget | None -> t.ec_budget);
    ec_checkpoint =
      (match checkpoint with Some _ -> checkpoint | None -> t.ec_checkpoint);
    ec_checkpoint_every =
      (match checkpoint_every with Some n -> n | None -> t.ec_checkpoint_every) }

let fork t =
  { ec_device = t.ec_device;
    ec_cost_cache = Bounded_cache.create ~capacity:(Bounded_cache.capacity t.ec_cost_cache) ();
    ec_fisher_cache =
      Bounded_cache.create ~capacity:(Bounded_cache.capacity t.ec_fisher_cache) ();
    ec_fault = Fault.copy t.ec_fault;
    ec_budget = t.ec_budget;
    ec_checkpoint = t.ec_checkpoint;
    ec_checkpoint_every = t.ec_checkpoint_every;
    ec_obs = Obs.fork t.ec_obs;
    ec_tune_configs = ref 0 }

let absorb parent worker =
  Bounded_cache.absorb parent.ec_cost_cache (Bounded_cache.stats worker.ec_cost_cache);
  Bounded_cache.absorb parent.ec_fisher_cache
    (Bounded_cache.stats worker.ec_fisher_cache);
  parent.ec_tune_configs := !(parent.ec_tune_configs) + !(worker.ec_tune_configs);
  Fault.add_injected parent.ec_fault (Fault.injected worker.ec_fault);
  Obs.absorb parent.ec_obs worker.ec_obs

let warm_from t ~src =
  Bounded_cache.merge_entries t.ec_cost_cache (Bounded_cache.entries src.ec_cost_cache)
  + Bounded_cache.merge_entries t.ec_fisher_cache
      (Bounded_cache.entries src.ec_fisher_cache)

let absorb_full parent worker =
  absorb parent worker;
  ignore (warm_from parent ~src:worker)

(* --- crash-safe cache persistence -------------------------------------- *)

(* The snapshot rides the atomic Checkpoint writer, so a kill mid-save
   leaves the previous snapshot intact.  [cs_schema] is the compatibility
   key: it is the first field, so a foreign checkpoint (e.g. a search
   snapshot, whose first field is also a string) is recognized and refused
   before any other field is touched. *)
type cache_snapshot = {
  cs_schema : string;
  cs_cost : (string * float) list;
  cs_fisher : (string * Fisher.scores) list;
}

let cache_schema = "nas-pte-shared-caches-v2"

let save_caches ~path t =
  Checkpoint.save ~path
    { cs_schema = cache_schema;
      cs_cost = Bounded_cache.entries t.ec_cost_cache;
      cs_fisher = Bounded_cache.entries t.ec_fisher_cache }

let load_caches ~path t =
  match Checkpoint.load ~path with
  | Error e -> Error e
  | Ok (sn : cache_snapshot) ->
      if sn.cs_schema <> cache_schema then
        Error
          (Nas_error.Checkpoint_error
             (Printf.sprintf "load %s: foreign cache snapshot" path))
      else
        Ok
          (Bounded_cache.merge_entries t.ec_cost_cache sn.cs_cost
          + Bounded_cache.merge_entries t.ec_fisher_cache sn.cs_fisher)

let reset t =
  Bounded_cache.clear t.ec_cost_cache;
  Bounded_cache.clear t.ec_fisher_cache;
  t.ec_tune_configs := 0

let device t = t.ec_device
let obs t = t.ec_obs
let fault t = t.ec_fault
let budget t = t.ec_budget
let checkpoint t = t.ec_checkpoint
let checkpoint_every t = t.ec_checkpoint_every
let cost_cache t = t.ec_cost_cache

(* A Fisher score depends only on the network spec, the rebuild seed and
   the per-site implementation vector, so that triple is the memo key:
   plans differing only in schedule hints or name share one entry, and
   every search strategy (and BlockSwap) reads the same memo.  The spec is
   part of the key because the rebuild seed is not: two networks searched
   from the same request seed draw the same rebuild seed. *)
let fisher_scores t ~seed model probe impls =
  let spec = Marshal.to_string model.Models.config [ Marshal.No_sharing ] in
  let key =
    Printf.sprintf "%s|%d|%s" (Digest.to_hex (Digest.string spec)) seed
      (String.concat ";" (Array.to_list (Array.map Conv_impl.to_string impls)))
  in
  Bounded_cache.remember t.ec_fisher_cache key (fun () ->
      Fisher.score (Models.rebuild model (Rng.create seed) impls) probe)

let cost_stats t = Bounded_cache.stats t.ec_cost_cache
let fisher_stats t = Bounded_cache.stats t.ec_fisher_cache

let note_tune t n = t.ec_tune_configs := !(t.ec_tune_configs) + n
let tune_configs t = !(t.ec_tune_configs)
