(* Property suite for Profiles.Merge (DESIGN.md §12): cross-shard
   aggregation must be a pure fold — the merged aggregate is
   byte-identical however the job set is sharded, however the shards
   are merged, and whichever engine produced the per-job profiles.

   Per-job profiles come from real runs: random gen_jasm programs
   instrumented with all seven profile kinds (the two edge-site combos
   from test_slots), run under several triggers so the job set mixes
   exhaustive and sampled shapes. *)

module Lir = Ir.Lir
module Merge = Profiles.Merge

let non_edge_specs =
  [
    Core.Spec.call_edge;
    Core.Spec.field_access;
    Core.Spec.value_profile;
    Profiles.Specs.cct_profile;
    Profiles.Specs.receiver_profile;
  ]

let spec_edges = Core.Spec.combine (Core.Spec.edge_profile :: non_edge_specs)
let spec_paths = Core.Spec.combine (Profiles.Specs.path_profile :: non_edge_specs)

let compile src =
  let classes = Jasm.Compile.compile_string src in
  let funcs = Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes) in
  (classes, funcs)

(* One "job": run [src] instrumented with [spec]/[transform] under
   [trigger] on [engine], return the decoded profile in canonical
   form. *)
let run_job ~engine ~transform ~trigger src =
  let classes, funcs = compile src in
  let funcs' = List.map (fun f -> (transform f).Core.Transform.func) funcs in
  let prog = Vm.Program.link classes ~funcs:funcs' in
  let sampler = Core.Sampler.create trigger in
  let c = Profiles.Collector.create () in
  let (_ : Vm.Interp.result) =
    Vm.Interp.run ~engine ~fuel:200_000_000 ~use_icache:true prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 5 ]
      (Profiles.Collector.hooks c sampler)
  in
  Merge.of_collector c

(* The job set for one program: both spec combos x three triggers, so
   all seven kinds appear and sampled/exhaustive shapes mix. *)
let jobs_of ~engine src =
  List.concat_map
    (fun transform ->
      List.map
        (fun trigger -> run_job ~engine ~transform ~trigger src)
        [
          Core.Sampler.Never;
          Core.Sampler.Counter { interval = 3; jitter = 0 };
          Core.Sampler.Counter { interval = 7; jitter = 2 };
        ])
    [
      Core.Transform.exhaustive spec_edges;
      Core.Transform.full_dup spec_paths;
      Core.Transform.no_dup spec_edges;
    ]

(* deterministic shuffle / partition helpers *)
let shuffle rand l =
  l
  |> List.map (fun x -> (Random.State.bits rand, x))
  |> List.sort compare |> List.map snd

let partition rand k l =
  let shards = Array.make k [] in
  List.iter (fun x -> let i = Random.State.int rand k in shards.(i) <- x :: shards.(i)) l;
  Array.to_list shards |> List.map List.rev

let check_program ~fail src =
  let jobs = jobs_of ~engine:`Fast src in
  let whole = Merge.merge_list jobs in
  let bytes = Merge.render whole in
  (* render/parse are exact inverses *)
  if Merge.parse bytes <> whole then fail "parse (render t) <> t";
  (* canonical form is a fixed point through a rebuilt collector *)
  let rebuilt = Merge.of_collector (Merge.to_collector whole) in
  if Merge.render rebuilt <> bytes then
    fail "of_collector (to_collector t) not canonical fixed point";
  (* identity and single-element laws *)
  if Merge.render (Merge.merge whole Merge.empty) <> bytes then
    fail "merge t empty <> t";
  if Merge.render (Merge.merge Merge.empty whole) <> bytes then
    fail "merge empty t <> t";
  let rand = Random.State.make [| Hashtbl.hash src |] in
  (* shard-split == unsharded, for several random partitions *)
  for k = 1 to 4 do
    let shards = partition rand k jobs in
    let merged = Merge.merge_list (List.map Merge.merge_list shards) in
    if Merge.render merged <> bytes then
      fail (Printf.sprintf "sharded merge (k=%d) differs from whole" k)
  done;
  (* merge-order independence: random permutations, fold either way *)
  for _ = 1 to 3 do
    let perm = shuffle rand jobs in
    if Merge.render (Merge.merge_list perm) <> bytes then
      fail "merge is order-dependent (permutation)";
    let folded_right =
      List.fold_left (fun acc j -> Merge.merge j acc) Merge.empty perm
    in
    if Merge.render folded_right <> bytes then
      fail "merge is order-dependent (right fold)"
  done;
  (* engine independence: Ref-produced job profiles merge to the same
     bytes (per-job profiles are engine-invariant, so the aggregate
     must be too) *)
  let ref_jobs = jobs_of ~engine:`Ref src in
  if Merge.render (Merge.merge_list ref_jobs) <> bytes then
    fail "Ref-engine jobs merge to different bytes";
  (* worker-count independence of the parallel merge tree *)
  let t1 = Harness.Aggregate.merge_tree ~jobs:1 jobs in
  let t4 = Harness.Aggregate.merge_tree ~jobs:4 jobs in
  if Merge.render t1 <> bytes || Merge.render t4 <> bytes then
    fail "parallel merge tree differs by worker count";
  (* the report tables rendered from the aggregate are deterministic *)
  let csv t =
    Profiles.Report.to_csv (Merge.to_collector t)
    |> List.map (fun (k, c) -> k ^ "\000" ^ c)
    |> String.concat "\001"
  in
  let c0 = csv whole in
  for _ = 1 to 2 do
    let perm = shuffle rand jobs in
    if csv (Merge.merge_list perm) <> c0 then
      fail "merged report tables depend on merge order"
  done;
  true

let merge_props =
  QCheck.Test.make ~count:30
    ~name:"merge: shard/order/engine/worker-count invariance (7 kinds)"
    Gen_jasm.arbitrary_program
    (fun p ->
      check_program
        ~fail:(fun msg -> QCheck.Test.fail_reportf "%s" msg)
        (Gen_jasm.render p))

(* quick pass: the same laws on a few seeded programs *)
let seeded () =
  let rand = Random.State.make [| 0xA66 |] in
  let progs = QCheck.Gen.generate ~n:3 ~rand Gen_jasm.program in
  List.iter
    (fun p -> ignore (check_program ~fail:Alcotest.fail (Gen_jasm.render p)))
    progs

(* hand-built edge cases the generator may not hit *)
let empty_laws () =
  Alcotest.(check bool) "empty is empty" true (Merge.is_empty Merge.empty);
  Alcotest.(check string) "merge_list [] renders as empty"
    (Merge.render Merge.empty)
    (Merge.render (Merge.merge_list []));
  let r = Merge.render Merge.empty in
  Alcotest.(check bool) "empty roundtrips" true (Merge.parse r = Merge.empty)

(* TNV union-sum must not truncate: merging two full tables keeps every
   distinct value, so heavy hitters can never be evicted by a merge. *)
let tnv_union_no_truncation () =
  let mk vals =
    let c = Profiles.Collector.create () in
    List.iter
      (fun v ->
        Profiles.Value_profile.record c.Profiles.Collector.values ~meth:"M.m"
          ~site:1 ~value:v)
      vals;
    Merge.of_collector c
  in
  let a = mk [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let b = mk [ 11; 12; 13; 14; 15; 16; 17; 18 ] in
  let m = Merge.merge a b in
  match m.Merge.values with
  | [ (_, (entries, total)) ] ->
      Alcotest.(check int) "all 16 values survive" 16 (List.length entries);
      Alcotest.(check int) "totals add" 16 total
  | _ -> Alcotest.fail "expected one site"

let suite =
  [
    ( "merge",
      [
        Alcotest.test_case "seeded merge laws" `Quick seeded;
        Alcotest.test_case "empty laws" `Quick empty_laws;
        Alcotest.test_case "tnv union-sum" `Quick tnv_union_no_truncation;
        QCheck_alcotest.to_alcotest ~long:true merge_props;
      ] );
  ]
