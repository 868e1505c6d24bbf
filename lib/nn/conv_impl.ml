type site = {
  site_index : int;
  in_channels : int;
  out_channels : int;
  kernel : int;
  stride : int;
  groups : int;  (* baseline grouping of the original convolution *)
  spatial_in : int;
  site_label : string;
}

type t =
  | Full
  | Grouped of int
  | Bottleneck of int
  | Depthwise_separable
  | Spatial_bottleneck of int
  | Split_grouped of int * int

let to_string = function
  | Full -> "full"
  | Grouped g -> Printf.sprintf "grouped(g=%d)" g
  | Bottleneck b -> Printf.sprintf "bottleneck(b=%d)" b
  | Depthwise_separable -> "depthwise-separable"
  | Spatial_bottleneck b -> Printf.sprintf "spatial-bottleneck(b=%d)" b
  | Split_grouped (g1, g2) -> Printf.sprintf "split-grouped(g=%d|%d)" g1 g2

let pp ppf t = Format.pp_print_string ppf (to_string t)

let spatial_out site = site.spatial_in / site.stride

(* The one definition of site validity: [] exactly when the implementation
   is legal at the site, otherwise one diagnostic per violated side
   condition.  Degenerate factors are rejected before they can reach a
   division, and a message is formatted only on the reject path. *)
let check site impl =
  let ci = site.in_channels and co = site.out_channels and g0 = site.groups in
  let error = Diagnostic.error in
  let divides g what n =
    if n mod g <> 0 then
      [ error ~code:"indivisible-channel" "group count %d does not divide the %s %d" g
          what n ]
    else []
  in
  match impl with
  | Full -> []
  | Grouped g ->
      if g <= g0 then
        [ error ~code:"degenerate-groups"
            "group count %d does not refine the baseline grouping %d" g g0 ]
      else divides g "input channels" ci @ divides g "output channels" co
  | Bottleneck b ->
      if b <= 1 then
        [ error ~code:"degenerate-factor"
            "bottleneck factor %d is degenerate (must exceed 1)" b ]
      else if co mod b <> 0 then
        [ error ~code:"indivisible-channel"
            "bottleneck factor %d does not divide the output channels %d" b co ]
      else if co / b mod g0 <> 0 then
        [ error ~code:"group-divisibility"
            "bottleneck width %d is not divisible by the baseline grouping %d"
            (co / b) g0 ]
      else []
  | Depthwise_separable ->
      (if site.kernel <= 1 then
         [ error ~code:"pointless-depthwise"
             "depthwise separation of a %dx%d kernel saves nothing" site.kernel
             site.kernel ]
       else [])
      @
      if g0 <> 1 then
        [ error ~code:"degenerate-groups"
            "depthwise separation requires an ungrouped baseline, got groups=%d" g0 ]
      else []
  | Spatial_bottleneck b ->
      if b <= 1 then
        [ error ~code:"degenerate-factor"
            "spatial bottleneck factor %d is degenerate (must exceed 1)" b ]
      else
        let so = spatial_out site in
        (if so mod b <> 0 then
           [ error ~code:"indivisible-extent"
               "spatial bottleneck factor %d does not divide the output plane %d" b so ]
         else [])
        @ (if so / b < 1 then
             [ error ~code:"indivisible-extent"
                 "spatial bottleneck factor %d collapses the %d-wide output plane" b so ]
           else [])
        @
        if site.spatial_in mod (site.stride * b) <> 0 then
          [ error ~code:"indivisible-extent"
              "combined stride %d does not divide the input plane %d"
              (site.stride * b) site.spatial_in ]
        else []
  | Split_grouped (g1, g2) ->
      let structural =
        (if co mod 2 <> 0 then
           [ error ~code:"indivisible-channel"
               "cannot halve the odd output-channel count %d" co ]
         else [])
        @ (if g1 < g0 then
             [ error ~code:"degenerate-groups"
                 "first group count %d is below the baseline grouping %d" g1 g0 ]
           else [])
        @ (if g2 < g0 then
             [ error ~code:"degenerate-groups"
                 "second group count %d is below the baseline grouping %d" g2 g0 ]
           else [])
        @
        if g1 = g2 then
          [ error ~code:"degenerate-groups"
              "split-grouped halves use the same group count %d (use grouped instead)"
              g1 ]
        else []
      in
      if structural <> [] then structural
      else
        let half = co / 2 in
        divides g1 "input channels" ci @ divides g2 "input channels" ci
        @ divides g1 "half-width" half @ divides g2 "half-width" half

let valid site impl = check site impl = []

(* MAC counts mirror exactly what the builder materializes so that budget
   accounting matches the real networks. *)
let macs site impl =
  let so = spatial_out site in
  let plane = so * so in
  let k2 = site.kernel * site.kernel in
  let ci = site.in_channels and co = site.out_channels in
  let g0 = site.groups in
  match impl with
  | Full -> ci * co * k2 * plane / g0
  | Grouped g -> ci * co * k2 * plane / g
  | Bottleneck b ->
      let mid = co / b in
      (ci * mid * k2 * plane / g0) + (mid * co * plane)
  | Depthwise_separable -> (ci * k2 * plane) + (ci * co * plane)
  | Spatial_bottleneck b ->
      (* convolution on the b-times smaller plane; the upsample is free of
         multiply-accumulates. *)
      ci * co * k2 * (plane / (b * b)) / g0
  | Split_grouped (g1, g2) ->
      let half = co / 2 in
      (ci * half * k2 * plane / g1) + (ci * half * k2 * plane / g2)

let param_count site impl =
  let k2 = site.kernel * site.kernel in
  let ci = site.in_channels and co = site.out_channels in
  let g0 = site.groups in
  match impl with
  | Full -> ci * co * k2 / g0
  | Grouped g -> ci * co * k2 / g
  | Bottleneck b ->
      let mid = co / b in
      (ci * mid * k2 / g0) + (mid * co)
  | Depthwise_separable -> (ci * k2) + (ci * co)
  | Spatial_bottleneck _ -> ci * co * k2 / g0
  | Split_grouped (g1, g2) ->
      let half = co / 2 in
      (ci * half * k2 / g1) + (ci * half * k2 / g2)

let all_options site =
  let candidates =
    [ Full; Grouped 2; Grouped 4; Grouped 8; Grouped 16;
      Bottleneck 2; Bottleneck 4; Depthwise_separable;
      Spatial_bottleneck 2; Split_grouped (2, 4); Split_grouped (2, 8) ]
  in
  List.filter (valid site) candidates

let reduction_factor site impl =
  float_of_int (macs site Full) /. float_of_int (macs site impl)

type workload = {
  w_in_channels : int;
  w_out_channels : int;
  w_kernel : int;
  w_stride : int;
  w_groups : int;
  w_spatial : int;
  w_label : string;
}

let workload ~ci ~co ~k ~stride ~groups ~spatial label =
  { w_in_channels = ci; w_out_channels = co; w_kernel = k; w_stride = stride;
    w_groups = groups; w_spatial = spatial; w_label = label }

let workload_out_spatial w = w.w_spatial / w.w_stride

let workload_macs w =
  let so = workload_out_spatial w in
  w.w_in_channels * w.w_out_channels * w.w_kernel * w.w_kernel * so * so / w.w_groups

(* Must mirror Builder.realize_site exactly: budget accounting and the
   hardware cost model both trust this expansion. *)
let workloads site impl =
  let ci = site.in_channels and co = site.out_channels in
  let k = site.kernel and stride = site.stride and g0 = site.groups in
  let sp = site.spatial_in in
  let so = spatial_out site in
  let lbl = site.site_label in
  match impl with
  | Full -> [ workload ~ci ~co ~k ~stride ~groups:g0 ~spatial:sp lbl ]
  | Grouped g -> [ workload ~ci ~co ~k ~stride ~groups:g ~spatial:sp lbl ]
  | Bottleneck b ->
      let mid = co / b in
      [ workload ~ci ~co:mid ~k ~stride ~groups:g0 ~spatial:sp (lbl ^ ".narrow");
        workload ~ci:mid ~co ~k:1 ~stride:1 ~groups:1 ~spatial:so (lbl ^ ".expand") ]
  | Depthwise_separable ->
      [ workload ~ci ~co:ci ~k ~stride ~groups:ci ~spatial:sp (lbl ^ ".dw");
        workload ~ci ~co ~k:1 ~stride:1 ~groups:1 ~spatial:so (lbl ^ ".pw") ]
  | Spatial_bottleneck b ->
      [ workload ~ci ~co ~k ~stride:(stride * b) ~groups:g0 ~spatial:sp
          (lbl ^ ".spatial") ]
  | Split_grouped (g1, g2) ->
      let half = co / 2 in
      [ workload ~ci ~co:half ~k ~stride ~groups:g1 ~spatial:sp (lbl ^ ".lo");
        workload ~ci ~co:half ~k ~stride ~groups:g2 ~spatial:sp (lbl ^ ".hi") ]
