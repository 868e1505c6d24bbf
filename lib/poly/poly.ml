type gpu_bind = Block_x | Block_y | Thread_x | Thread_y | Vthread

let gpu_bind_to_string = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Thread_x -> "threadIdx.x"
  | Thread_y -> "threadIdx.y"
  | Vthread -> "vthread"

type contrib = { src : string; weight : int }
type digit = { contribs : contrib list; extent : int }

type loop = {
  digits : digit list;
  unroll : int;
  vectorized : bool;
  prefetched : bool;
  parallelized : bool;
  bind : gpu_bind option;
}

type neural_op =
  | N_bottleneck of { iter : string; factor : int }
  | N_group of { factor : int }
  | N_depthwise of { factor : int }

type t = {
  domain : (string * int) list;
  loops : loop list;
  neural_log : neural_op list;
}

exception Illegal of string

let illegal fmt = Format.kasprintf (fun s -> raise (Illegal s)) fmt

let plain_loop digits =
  { digits; unroll = 1; vectorized = false; prefetched = false; parallelized = false;
    bind = None }

let of_domain domain =
  let loops =
    List.map
      (fun (name, extent) ->
        if extent <= 0 then illegal "iterator %s has extent %d" name extent;
        plain_loop [ { contribs = [ { src = name; weight = 1 } ]; extent } ])
      domain
  in
  { domain; loops; neural_log = [] }

let loop_count t = List.length t.loops
let loop_extent l = List.fold_left (fun acc d -> acc * d.extent) 1 l.digits
let points t = List.fold_left (fun acc l -> acc * loop_extent l) 1 t.loops

let iter_extent t name =
  match List.assoc_opt name t.domain with
  | Some e -> e
  | None -> illegal "unknown iterator %s" name

let nth_loop t pos =
  if pos < 0 || pos >= loop_count t then illegal "loop position %d out of range" pos;
  List.nth t.loops pos

let replace_loops t loops = { t with loops }

let update_at pos f loops =
  List.mapi (fun i l -> if i = pos then f l else l) loops

let interchange t a b =
  let n = loop_count t in
  if a < 0 || b < 0 || a >= n || b >= n then illegal "interchange out of range";
  let la = List.nth t.loops a and lb = List.nth t.loops b in
  replace_loops t
    (List.mapi (fun i l -> if i = a then lb else if i = b then la else l) t.loops)

let reorder t perm =
  let n = loop_count t in
  if Array.length perm <> n then illegal "reorder: permutation length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then illegal "reorder: not a permutation";
      seen.(p) <- true)
    perm;
  let arr = Array.of_list t.loops in
  replace_loops t (Array.to_list (Array.map (fun p -> arr.(p)) perm))

let split t ~pos ~factor =
  let l = nth_loop t pos in
  (match l.digits with
  | [ _ ] -> ()
  | _ -> illegal "split: loop %d is fused; split before fusing" pos);
  let d = List.hd l.digits in
  if factor <= 1 then illegal "split: factor must exceed 1";
  if d.extent mod factor <> 0 then
    illegal "split: factor %d does not divide extent %d" factor d.extent;
  let outer =
    { contribs = List.map (fun c -> { c with weight = c.weight * factor }) d.contribs;
      extent = d.extent / factor }
  in
  let inner = { d with extent = factor } in
  let rec insert i = function
    | [] -> illegal "split: position out of range"
    | l0 :: rest ->
        if i = pos then plain_loop [ outer ] :: { l with digits = [ inner ] } :: rest
        else l0 :: insert (i + 1) rest
  in
  replace_loops t (insert 0 t.loops)

let fuse t ~pos =
  let n = loop_count t in
  if pos < 0 || pos + 1 >= n then illegal "fuse: position out of range";
  let la = List.nth t.loops pos and lb = List.nth t.loops (pos + 1) in
  if la.bind <> None || lb.bind <> None then illegal "fuse: cannot fuse bound loops";
  let fused =
    { digits = la.digits @ lb.digits;
      unroll = 1;
      vectorized = la.vectorized && lb.vectorized;
      prefetched = la.prefetched || lb.prefetched;
      parallelized = la.parallelized && lb.parallelized;
      bind = None }
  in
  let rec rebuild i = function
    | [] -> []
    | _ :: rest when i = pos + 1 -> rebuild (i + 1) rest
    | l :: rest -> (if i = pos then fused else l) :: rebuild (i + 1) rest
  in
  replace_loops t (rebuild 0 t.loops)

let tile t ~pos ~factor =
  let t = split t ~pos ~factor in
  (* Sink the freshly created inner loop (now at pos+1) to the innermost
     position. *)
  let inner = List.nth t.loops (pos + 1) in
  let without = List.filteri (fun i _ -> i <> pos + 1) t.loops in
  replace_loops t (without @ [ inner ])

let unroll t ~pos ~factor =
  if factor < 1 then illegal "unroll: factor must be positive";
  let l = nth_loop t pos in
  let f = min factor (loop_extent l) in
  replace_loops t (update_at pos (fun l -> { l with unroll = f }) t.loops)

let vectorize t ~pos =
  ignore (nth_loop t pos);
  replace_loops t (update_at pos (fun l -> { l with vectorized = true }) t.loops)

let prefetch t ~pos =
  ignore (nth_loop t pos);
  replace_loops t (update_at pos (fun l -> { l with prefetched = true }) t.loops)

let parallelize t ~pos =
  ignore (nth_loop t pos);
  replace_loops t (update_at pos (fun l -> { l with parallelized = true }) t.loops)

let bind t ~pos b =
  ignore (nth_loop t pos);
  replace_loops t (update_at pos (fun l -> { l with bind = Some b }) t.loops)

(* --- Neural transformations ------------------------------------------ *)

let scale_iterator t name factor =
  List.map
    (fun (n, e) ->
      if n = name then begin
        if e mod factor <> 0 then
          illegal "bottleneck: %d does not divide extent of %s (%d)" factor name e;
        (n, e / factor)
      end
      else (n, e))
    t.domain

(* The leading digit of an iterator is its highest-weight digit; shrinking
   its extent restricts the iterator's range to a prefix, which is exactly
   the paper's [c_o' < C_o / B] domain restriction. *)
let bottleneck t ~iter ~factor =
  if factor <= 1 then illegal "bottleneck: factor must exceed 1";
  ignore (iter_extent t iter);
  let best = ref None in
  List.iteri
    (fun li l ->
      List.iteri
        (fun di d ->
          List.iter
            (fun c ->
              if c.src = iter then
                match !best with
                | Some (_, _, w) when w >= c.weight -> ()
                | _ -> best := Some (li, di, c.weight))
            d.contribs)
        l.digits)
    t.loops;
  match !best with
  | None -> illegal "bottleneck: iterator %s not scheduled" iter
  | Some (li, di, _) ->
      let l = List.nth t.loops li in
      let d = List.nth l.digits di in
      if List.length d.contribs > 1 then
        illegal "bottleneck: leading digit of %s is shared (grouped)" iter;
      if d.extent mod factor <> 0 then
        illegal "bottleneck: %d does not divide leading extent %d" factor d.extent;
      let d' = { d with extent = d.extent / factor } in
      let l' = { l with digits = List.mapi (fun i x -> if i = di then d' else x) l.digits } in
      { domain = scale_iterator t iter factor;
        loops = update_at li (fun _ -> l') t.loops;
        neural_log = t.neural_log @ [ N_bottleneck { iter; factor } ] }

let whole_loop_of t name =
  (* Position of a loop consisting of exactly the iterator's single digit. *)
  let found = ref None in
  List.iteri
    (fun li l ->
      match l.digits with
      | [ { contribs = [ { src; weight = 1 } ]; extent } ]
        when src = name && extent = iter_extent t name ->
          found := Some li
      | _ -> ())
    t.loops;
  !found

let group t ~co ~ci ~factor =
  if factor <= 1 then illegal "group: factor must exceed 1";
  let eco = iter_extent t co and eci = iter_extent t ci in
  if eco mod factor <> 0 || eci mod factor <> 0 then
    illegal "group: %d must divide both %s (%d) and %s (%d)" factor co eco ci eci;
  let pco =
    match whole_loop_of t co with
    | Some p -> p
    | None -> illegal "group: %s must be a whole un-split loop" co
  in
  let pci =
    match whole_loop_of t ci with
    | Some p -> p
    | None -> illegal "group: %s must be a whole un-split loop" ci
  in
  let slice =
    plain_loop
      [ { contribs =
            [ { src = co; weight = eco / factor }; { src = ci; weight = eci / factor } ];
          extent = factor } ]
  in
  let co_inner = plain_loop [ { contribs = [ { src = co; weight = 1 } ]; extent = eco / factor } ] in
  let ci_inner = plain_loop [ { contribs = [ { src = ci; weight = 1 } ]; extent = eci / factor } ] in
  (* Replace the co loop by [slice; co_inner] and the ci loop by [ci_inner];
     drop degenerate extent-1 loops (the depthwise simplification). *)
  let rebuilt =
    List.concat
      (List.mapi
         (fun i l ->
           if i = pco then
             List.filter (fun l -> loop_extent l > 1) [ slice; co_inner ]
           else if i = pci then
             List.filter (fun l -> loop_extent l > 1) [ ci_inner ]
           else [ l ])
         t.loops)
  in
  { t with loops = rebuilt; neural_log = t.neural_log @ [ N_group { factor } ] }

let depthwise t ~co ~ci =
  let eco = iter_extent t co and eci = iter_extent t ci in
  if eco <> eci then illegal "depthwise: extents of %s and %s differ" co ci;
  let t = group t ~co ~ci ~factor:eco in
  (* Replace the N_group entry that [group] just appended by N_depthwise. *)
  let log =
    match List.rev t.neural_log with
    | N_group { factor } :: rest -> List.rev (N_depthwise { factor } :: rest)
    | _ -> t.neural_log @ [ N_depthwise { factor = eco } ]
  in
  { t with neural_log = log }

let is_semantics_preserving t = t.neural_log = []

(* --- Decoding --------------------------------------------------------- *)

let decode t loop_values =
  if Array.length loop_values <> loop_count t then
    invalid_arg "decode: wrong number of loop values";
  let acc = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace acc name 0) t.domain;
  List.iteri
    (fun li l ->
      (* Mixed-radix decode of the loop value into its digits. *)
      let v = ref loop_values.(li) in
      let rads = List.map (fun d -> d.extent) l.digits in
      let total = List.fold_left ( * ) 1 rads in
      if !v < 0 || !v >= total then invalid_arg "decode: loop value out of range";
      let rec go digits v =
        match digits with
        | [] -> ()
        | d :: rest ->
            let inner = List.fold_left (fun a x -> a * x.extent) 1 rest in
            let dv = v / inner in
            List.iter
              (fun c ->
                Hashtbl.replace acc c.src
                  (Hashtbl.find acc c.src + (dv * c.weight)))
              d.contribs;
            go rest (v mod inner)
      in
      go l.digits !v)
    t.loops;
  List.map (fun (name, _) -> (name, Hashtbl.find acc name)) t.domain

(* --- Printing --------------------------------------------------------- *)

let digit_name d =
  match d.contribs with
  | [] -> "_"
  | [ { src; weight = 1 } ] -> src
  | [ { src; weight } ] -> Printf.sprintf "%s/%d" src weight
  | contribs ->
      String.concat "+" (List.map (fun c -> c.src) contribs)

let loop_name l =
  match l.digits with
  | [ d ] -> digit_name d
  | ds -> String.concat "." (List.map digit_name ds)

let loop_names t = Array.of_list (List.map loop_name t.loops)

let pp ppf t =
  Format.fprintf ppf "@[<v>domain: %s@,"
    (String.concat ", "
       (List.map (fun (n, e) -> Printf.sprintf "%s<%d" n e) t.domain));
  List.iteri
    (fun i l ->
      let annots =
        List.filter_map
          (fun x -> x)
          [ (if l.unroll > 1 then Some (Printf.sprintf "unroll=%d" l.unroll) else None);
            (if l.vectorized then Some "vectorize" else None);
            (if l.prefetched then Some "prefetch" else None);
            (if l.parallelized then Some "parallel" else None);
            Option.map (fun b -> "bind=" ^ gpu_bind_to_string b) l.bind ]
      in
      Format.fprintf ppf "for %s [%d]%s%s@," (loop_name l) (loop_extent l)
        (if annots = [] then "" else " ")
        (String.concat " " annots);
      ignore i)
    t.loops;
  if t.neural_log <> [] then
    Format.fprintf ppf "neural: %s@,"
      (String.concat "; "
         (List.map
            (function
              | N_bottleneck { iter; factor } ->
                  Printf.sprintf "bottleneck(%s,/%d)" iter factor
              | N_group { factor } -> Printf.sprintf "group(G=%d)" factor
              | N_depthwise { factor } -> Printf.sprintf "depthwise(G=%d)" factor)
            t.neural_log));
  Format.fprintf ppf "@]"
