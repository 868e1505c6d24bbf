type t =
  | Plain_group of int
  | Plain_bottleneck of int
  | Plain_depthwise
  | Seq1 of { g : int; split : int }
  | Seq2 of { g : int; unroll : int }
  | Seq3 of { g1 : int; g2 : int }
  | Spatial_bneck of int

let name = function
  | Plain_group g -> Printf.sprintf "group(G=%d)" g
  | Plain_bottleneck b -> Printf.sprintf "bottleneck(B=%d)" b
  | Plain_depthwise -> "depthwise"
  | Seq1 { g; split } -> Printf.sprintf "seq1[split(%d)>int>group(%d)>int>fuse]" split g
  | Seq2 { g; unroll } -> Printf.sprintf "seq2[unroll(%d)>group(%d)>int]" unroll g
  | Seq3 { g1; g2 } -> Printf.sprintf "seq3[split>group(%d)>int>group(%d)]" g1 g2
  | Spatial_bneck b -> Printf.sprintf "spatial-bottleneck(b=%d)" b

let plan seq =
  let open Autotune in
  match seq with
  | Plain_group g -> Site_plan.make ~name:(name seq) (Conv_impl.Grouped g)
  | Plain_bottleneck b -> Site_plan.make ~name:(name seq) (Conv_impl.Bottleneck b)
  | Plain_depthwise -> Site_plan.make ~name:(name seq) Conv_impl.Depthwise_separable
  | Seq1 { g; split } ->
      Site_plan.make ~name:(name seq)
        ~hints:{ no_hints with h_spatial_split = Some split }
        (Conv_impl.Grouped g)
  | Seq2 { g; unroll } ->
      Site_plan.make ~name:(name seq)
        ~hints:{ no_hints with h_unroll_co = Some unroll }
        (Conv_impl.Grouped g)
  | Seq3 { g1; g2 } -> Site_plan.make ~name:(name seq) (Conv_impl.Split_grouped (g1, g2))
  | Spatial_bneck b -> Site_plan.make ~name:(name seq) (Conv_impl.Spatial_bottleneck b)

let valid site seq = Conv_impl.valid site (plan seq).Site_plan.sp_impl

let standard_menu site =
  List.filter (valid site)
    [ Plain_group 2; Plain_group 4; Plain_group 8; Plain_group 16;
      Plain_bottleneck 2;
      Plain_depthwise;
      Seq1 { g = 2; split = 2 }; Seq1 { g = 4; split = 2 };
      Seq2 { g = 2; unroll = 16 }; Seq2 { g = 4; unroll = 16 };
      Seq3 { g1 = 2; g2 = 4 }; Seq3 { g1 = 2; g2 = 8 }; Seq3 { g1 = 4; g2 = 8 };
      Spatial_bneck 2 ]

(* Rule inversion: enumerate every parameterization each family admits on
   this site straight from its divisor structure, instead of filtering a
   fixed list through [valid].  Each generator mirrors one arm of
   [Conv_impl.valid]; together they make [List.for_all (valid site)]
   vacuous by construction (pinned by test and fuzzer). *)
let divisors_gt1 n =
  List.filter (fun d -> n mod d = 0) (List.init (max 0 (n - 1)) (fun i -> i + 2))

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let typed_menu (site : Conv_impl.site) =
  let ci = site.Conv_impl.in_channels and co = site.Conv_impl.out_channels in
  let g0 = site.Conv_impl.groups in
  let so = Conv_impl.spatial_out site in
  (* group factors: divide both channel counts, refine the baseline grouping *)
  let group_factors =
    List.filter (fun g -> g > g0) (divisors_gt1 (gcd ci co))
  in
  let groups = List.map (fun g -> Plain_group g) group_factors in
  (* bottleneck factors: the narrowed mid-channel count must stay divisible
     by (and at least) the baseline grouping, i.e. b divides co/g0 *)
  let bottlenecks =
    if co mod g0 = 0 then
      List.map (fun b -> Plain_bottleneck b) (divisors_gt1 (co / g0))
    else []
  in
  let depthwise =
    if site.Conv_impl.kernel > 1 && g0 = 1 then [ Plain_depthwise ] else []
  in
  (* spatial bottleneck: the plane shrink must divide the output plane and
     compose with the stride *)
  let spatials =
    List.filter_map
      (fun b ->
        if site.Conv_impl.spatial_in mod (site.Conv_impl.stride * b) = 0 then
          Some (Spatial_bneck b)
        else None)
      (divisors_gt1 so)
  in
  (* hinted variants of the dominant sequences, over the same typed group
     factors *)
  let seq1s =
    if so mod 2 = 0 then List.map (fun g -> Seq1 { g; split = 2 }) group_factors
    else []
  in
  let seq2s = List.map (fun g -> Seq2 { g; unroll = 16 }) group_factors in
  (* split-grouped: per-half factors divide the input channels and the
     half output channels, and respect the baseline grouping *)
  let seq3s =
    if co mod 2 = 0 then begin
      let half = co / 2 in
      let gs =
        List.filter
          (fun g -> g >= g0)
          (1 :: divisors_gt1 (gcd ci half))
      in
      List.concat_map
        (fun g1 ->
          List.filter_map
            (fun g2 -> if g1 < g2 then Some (Seq3 { g1; g2 }) else None)
            gs)
        gs
    end
    else []
  in
  groups @ bottlenecks @ depthwise @ spatials @ seq1s @ seq2s @ seq3s

let is_dominant = function
  | Seq1 _ | Seq2 _ | Seq3 _ -> true
  | Plain_group _ | Plain_bottleneck _ | Plain_depthwise | Spatial_bneck _ -> false

(* The literal §7.3 / §5.3 transformation chains over the loop nest. *)
let schedules seq nest =
  let base = Loop_nest.baseline_schedule nest in
  match seq with
  | Plain_group g -> [ Poly.group base ~co:"co" ~ci:"ci" ~factor:g ]
  | Plain_bottleneck b -> [ Poly.bottleneck base ~iter:"co" ~factor:b ]
  | Plain_depthwise -> [ Poly.depthwise base ~co:"co" ~ci:"ci" ]
  | Seq1 { g; split } ->
      (* split the spatial domain, rotate the chunk loop outermost, group the
         channels, rotate back, fuse the spatial remainder. *)
      let s = Poly.split base ~pos:2 ~factor:split in
      let n = Poly.loop_count s in
      let to_front = Array.init n (fun i -> if i = 0 then 2 else if i <= 2 then i - 1 else i) in
      let s = Poly.reorder s to_front in
      let s = Poly.group s ~co:"co" ~ci:"ci" ~factor:g in
      (* after grouping the loop list may have changed length *)
      let n = Poly.loop_count s in
      let back = Array.init n (fun i -> if i = 0 then 1 else if i = 1 then 0 else i) in
      let s = Poly.reorder s back in
      (* fuse the split spatial chunk with its remainder when adjacent *)
      [ s ]
  | Seq2 { g; unroll } ->
      let s = Poly.group base ~co:"co" ~ci:"ci" ~factor:g in
      let s =
        match
          List.mapi (fun i l -> (i, l)) s.Poly.loops
          |> List.find_opt (fun (_, (l : Poly.loop)) ->
                 Poly.loop_extent l > 1
                 && List.exists
                      (fun (d : Poly.digit) ->
                        List.exists (fun (c : Poly.contrib) -> c.Poly.src = "co") d.Poly.contribs)
                      l.Poly.digits)
        with
        | Some (pos, _) -> Poly.unroll s ~pos ~factor:unroll
        | None -> s
      in
      [ Poly.interchange s 0 1 ]
  | Seq3 { g1; g2 } ->
      (* The output-channel domain is split in two halves, each grouped with
         its own factor; the halves are separate nests over co/2 filters. *)
      let half_nest = { nest with Loop_nest.nc_co = nest.Loop_nest.nc_co / 2 } in
      let half = Loop_nest.baseline_schedule half_nest in
      [ Poly.group half ~co:"co" ~ci:"ci" ~factor:g1;
        Poly.group half ~co:"co" ~ci:"ci" ~factor:g2 ]
  | Spatial_bneck b ->
      (* §5.3: [int -> B(b) -> int -> B(b) -> int]. *)
      let n0 = Poly.loop_count base in
      let spatial_first =
        (* move oh, ow outermost: [oh; ow; rest] *)
        let order = Array.init n0 (fun i -> [| 2; 3; 0; 1; 4; 5 |].(i)) in
        Poly.reorder base order
      in
      let s = Poly.bottleneck spatial_first ~iter:"oh" ~factor:b in
      let s = Poly.interchange s 0 1 in
      let s = Poly.bottleneck s ~iter:"ow" ~factor:b in
      let back = Array.init n0 (fun i -> [| 2; 3; 1; 0; 4; 5 |].(i)) in
      [ Poly.reorder s back ]
