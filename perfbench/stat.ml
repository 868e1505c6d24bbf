(* Order statistics used for every reported timing, with a self-test that
   runs at the start of every benchmark invocation. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.median: empty";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The tail: the highest order statistic with at least [beyond] samples
   above it, i.e. the (n - beyond)-th smallest, reported with the
   percentile it sits at.  [None] when fewer than [beyond + 1] samples
   exist.  A fixed amount of work per run gives a fixed n, so the same
   percentile is reported on every run of a workload. *)
let tail ?(beyond = 10) xs =
  let n = Array.length xs in
  if n <= beyond then None
  else
    let s = sorted xs in
    let r = n - beyond in
    Some (s.(r - 1), 100.0 *. float_of_int r /. float_of_int n)

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.geomean: empty";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if xs = [||] then 0.0 else sum xs /. float_of_int (Array.length xs)

(* Known answers.  Returns the failed cases' names. *)
let self_test () =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b) in
  check "median odd" (median [| 3.; 1.; 2. |] = 2.);
  check "median even" (median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median single" (median [| 7. |] = 7.);
  let xs k = Array.init k (fun i -> float_of_int (k - i)) in
  check "tail needs eleven" (tail (xs 10) = None);
  check "tail n=11 is the minimum" (tail (xs 11) = Some (1.0, 100.0 /. 11.0));
  check "tail n=20 is p50" (tail (xs 20) = Some (10.0, 50.0));
  check "tail n=100 is p90" (tail (xs 100) = Some (90.0, 90.0));
  (match tail (xs 57) with
  | Some (v, p) ->
      let beyond = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 (xs 57) in
      check "tail leaves exactly ten beyond" (beyond = 10 && close p (4700.0 /. 57.0))
  | None -> check "tail n=57" false);
  check "tail beyond=2" (tail ~beyond:2 [| 1.; 2.; 3.; 4. |] = Some (2.0, 50.0));
  check "geomean" (close (geomean [| 2.; 8. |]) 4.0);
  List.rev !failures
