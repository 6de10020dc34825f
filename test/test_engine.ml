(* Differential testing of the closure-compiled engine (`Fast) against
   the reference interpreter (`Ref).

   The two engines must be observationally BIT-IDENTICAL, not merely
   semantically equivalent: same return value and printed output, same
   cycle and instruction counts, same event counters (entries,
   yieldpoints, checks, samples, thread switches, instrumentation ops),
   same i-/d-cache miss counts, and — because instrumentation hooks fire
   in program order with full contexts — the same decoded profiles
   (call edges, field accesses, Ball–Larus paths).

   Every random program is run under every transform of the paper
   (exhaustive, Full-, Partial-, No-Duplication, and the
   yieldpoint-sharing optimization) crossed with every trigger
   (always/never/counter/jittered/per-thread/timer), with both caches
   enabled, and the full observation tuples are compared with
   structural equality.

   Quick/Slow split (PR 1 convention): the quick pass replays a few
   seeded programs; the QCheck property (100 random programs) registers
   as `Slow and runs under `make ci`. *)

module Lir = Ir.Lir

(* call-edge + field-access + Ball–Larus paths: together these record
   every hook invocation the transforms can emit, so profile equality
   pins the hook call sequence *)
let spec =
  Core.Spec.combine
    [ Core.Spec.call_edge; Core.Spec.field_access; Profiles.Specs.path_profile ]

let transforms =
  [
    ("baseline", None);
    ("exhaustive", Some (Core.Transform.exhaustive spec));
    ("full-dup", Some (Core.Transform.full_dup spec));
    ("partial-dup", Some (Core.Transform.partial_dup spec));
    ("no-dup", Some (Core.Transform.no_dup spec));
    ("yp-opt", Some (Core.Transform.full_dup_yieldpoint_opt spec));
  ]

let triggers =
  [
    ("always", Core.Sampler.Always);
    ("never", Core.Sampler.Never);
    ("counter-3", Core.Sampler.Counter { interval = 3; jitter = 0 });
    ("counter-7j2", Core.Sampler.Counter { interval = 7; jitter = 2 });
    ("per-thread-5", Core.Sampler.Counter_per_thread { interval = 5 });
    ("timer", Core.Sampler.Timer_bit);
  ]

let compile src =
  let classes = Jasm.Compile.compile_string src in
  let funcs = Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes) in
  (classes, funcs)

let instrument transform funcs =
  match transform with
  | None -> funcs
  | Some t -> List.map (fun f -> (t f).Core.Transform.func) funcs

(* Everything observable from one run, as one structurally comparable
   value.  A fresh link, collector and sampler per run: engines must
   agree starting from identical cold state.  [dcache] (default on)
   and [faults] feed the same-named run knobs.  [traces] arms the
   trace-recording tier (Fast only) with a low threshold so the small
   generated loops actually turn hot; [recording] selects the legacy
   event-by-event collector or the flat-slot recorder — traced
   execution must be bit-identical under both. *)
let observe ~engine ?trace_threshold ?(recording = `Legacy) ?(dcache = true)
    ?faults classes funcs trigger =
  let prog = Vm.Program.link classes ~funcs in
  let sampler = Core.Sampler.create trigger in
  let hooks, recorder, decode =
    match recording with
    | `Legacy ->
        let c = Profiles.Collector.create () in
        (Profiles.Collector.hooks c sampler, None, fun () -> c)
    | `Slots ->
        let s = Profiles.Slots.create prog in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          fun () -> Profiles.Slots.decode s )
  in
  let res =
    Vm.Interp.run ~engine ~fuel:200_000_000 ~use_icache:true ~use_dcache:dcache
      ?recorder ?trace_threshold ?faults prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 5 ] hooks
  in
  let collector = decode () in
  let c = res.Vm.Interp.counters in
  ( ( res.Vm.Interp.return_value,
      res.Vm.Interp.output,
      res.Vm.Interp.cycles,
      res.Vm.Interp.instructions ),
    ( c.Vm.Interp.entries,
      c.Vm.Interp.backedge_yps,
      c.Vm.Interp.entry_yps,
      c.Vm.Interp.checks,
      c.Vm.Interp.samples,
      c.Vm.Interp.thread_switches,
      c.Vm.Interp.instrument_ops ),
    (res.Vm.Interp.icache_misses, res.Vm.Interp.dcache_misses),
    ( List.sort compare
        (Profiles.Call_edge.to_keyed collector.Profiles.Collector.call_edges),
      List.sort compare
        (Profiles.Field_access.to_keyed collector.Profiles.Collector.fields),
      List.sort compare
        (Profiles.Path_profile.to_alist collector.Profiles.Collector.paths) ) )

(* [fail]: how to report a divergence (QCheck's fail_reportf for the
   property, Alcotest.fail for the quick seeded pass) *)
let check_program ~fail src =
  let classes, funcs = compile src in
  List.for_all
    (fun (tname, transform) ->
      let funcs' = instrument transform funcs in
      List.for_all
        (fun (sname, trigger) ->
          let oracle = observe ~engine:`Ref classes funcs' trigger in
          List.for_all
            (fun (vname, obs) ->
              if obs <> oracle then
                fail
                  (Printf.sprintf
                     "engines diverge (%s): transform %s under trigger %s"
                     vname tname sname)
              else true)
            [
              ("Fast", observe ~engine:`Fast classes funcs' trigger);
              ( "Fast+traces",
                observe ~engine:`Fast ~trace_threshold:3 classes funcs'
                  trigger );
              ( "Fast+traces/slots",
                observe ~engine:`Fast ~trace_threshold:3 ~recording:`Slots
                  classes funcs' trigger );
            ])
        triggers)
    transforms

let engines_agree =
  QCheck.Test.make ~count:100
    ~name:"engine: Fast == Ref (all transforms x triggers, both caches)"
    Gen_jasm.arbitrary_program
    (fun p ->
      check_program
        ~fail:(fun msg -> QCheck.Test.fail_reportf "%s" msg)
        (Gen_jasm.render p))

(* quick pass: same check on a handful of programs from a pinned seed *)
let seeded_agree () =
  let rand = Random.State.make [| 0xE51 |] in
  let progs = QCheck.Gen.generate ~n:5 ~rand Gen_jasm.program in
  List.iter
    (fun p ->
      ignore (check_program ~fail:Alcotest.fail (Gen_jasm.render p)))
    progs

(* ---- every straight-line opcode, one shape at a time ---- *)

(* Random programs reach the straight-line opcodes only in the shapes the
   frontend happens to emit, and their fault paths (unresolved
   references, null or immediate objects, zero divisors) hardly ever.
   Here each opcode x operand shape gets its own hand-built loop, so
   every arm of the shared [Vm.Ops] bodies runs on the reference, on
   Fast (fused runs and the word chain) and traced, with the d-cache on
   and off, and under a dense plan of non-trapping fault
   events that keeps tripping the guard gate — fused prechecks and
   trace prechecks then decline and the per-word chain runs.  The
   observation, or the error message, must be identical. *)

(* class metadata for the hand-built bodies; Main.main is replaced *)
let sl_classes =
  Jasm.Compile.compile_string
    {|
  class P {
    var a: int;
    var b: int;
    static var s: int;
  }
  class Main {
    static fun main(n: int): int { return n; }
  }
|}

(* registers of the harness loop *)
let r_i = 1 (* iteration, 0 .. 11 *)
let r_obj = 2 (* a P *)
let r_arr = 3 (* an int[4] *)
let r_x = 4 (* 7i - 13: negative, zero-free, positive *)
let r_y = 5 (* 9i - 20: negative, then shift counts up to 79 *)
let r_dst = 6 (* the opcode's destination *)
let r_acc = 7 (* the folded result *)
let r_z = 8 (* i - 3: a divisor that reaches zero at i = 3 *)
let r_t = 9

let fa = { Lir.fclass = "P"; fname = "a" }
let fs = { Lir.fclass = "P"; fname = "s" }
let nope = { Lir.fclass = "P"; fname = "nope" }

(* Main.main: set up, then 12 iterations of [body] behind a backedge
   yieldpoint (the trace anchor), each folding [r_dst], a field, a
   static and an array cell into the accumulator it returns. *)
let sl_main body =
  let b =
    Ir.Build.create ~n_regs:10
      ~name:{ Lir.mclass = "Main"; mname = "main" }
      ~n_params:1 ()
  in
  let entry = Ir.Build.new_block b in
  let loop = Ir.Build.new_block b in
  let exit = Ir.Build.new_block b in
  let emit l = List.iter (Ir.Build.emit b l) in
  emit entry
    Lir.
      [
        Move (r_i, Imm 0);
        Move (r_acc, Imm 0);
        New_object (r_obj, "P");
        New_array (r_arr, Imm 4);
      ];
  Ir.Build.set_term b entry (Lir.Goto loop);
  emit loop
    Lir.(
      [
        Yieldpoint Yp_backedge;
        Binop (r_x, Mul, Reg r_i, Imm 7);
        Binop (r_x, Sub, Reg r_x, Imm 13);
        Binop (r_y, Mul, Reg r_i, Imm 9);
        Binop (r_y, Sub, Reg r_y, Imm 20);
        Binop (r_z, Sub, Reg r_i, Imm 3);
      ]
      @ body
      @ [
          Binop (r_acc, Mul, Reg r_acc, Imm 31);
          Binop (r_acc, Add, Reg r_acc, Reg r_dst);
          Get_field (r_t, Reg r_obj, fa);
          Binop (r_acc, Xor, Reg r_acc, Reg r_t);
          Get_static (r_t, fs);
          Binop (r_acc, Add, Reg r_acc, Reg r_t);
          Array_load (r_t, Reg r_arr, Imm 1);
          Binop (r_acc, Sub, Reg r_acc, Reg r_t);
          Binop (r_i, Add, Reg r_i, Imm 1);
          Binop (r_t, Lt, Reg r_i, Imm 12);
        ]);
  Ir.Build.set_term b loop
    (Lir.If { cond = Lir.Reg r_t; if_true = loop; if_false = exit });
  Ir.Build.set_term b exit (Lir.Return (Some (Lir.Reg r_acc)));
  Ir.Build.finish b ~entry

let sl_cases =
  let open Lir in
  let binops =
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne ]
  in
  let shapes =
    [ (Reg r_x, Reg r_y); (Reg r_x, Imm 5); (Imm 17, Reg r_y); (Imm 17, Imm 5) ]
  in
  let one i = [ i ] in
  List.concat_map
    (fun op -> List.map (fun (a, b) -> one (Binop (r_dst, op, a, b))) shapes)
    binops
  (* division by zero: a register divisor reaching zero, immediate zero *)
  @ List.concat_map
      (fun op ->
        List.map
          (fun (a, b) -> one (Binop (r_dst, op, a, b)))
          [
            (Reg r_x, Reg r_z);
            (Imm 17, Reg r_z);
            (Reg r_x, Imm 0);
            (Imm 17, Imm 0);
          ])
      [ Div; Rem ]
  (* shift counts >= 32 and negative, masked to 5 bits *)
  @ List.concat_map
      (fun op ->
        List.map
          (fun (a, b) -> one (Binop (r_dst, op, a, b)))
          [ (Reg r_x, Imm 33); (Reg r_x, Imm 64); (Imm (-17), Imm 40);
            (Imm 3, Reg r_y); (Reg r_x, Imm (-1)) ])
      [ Shl; Shr ]
  @ [
      one (Move (r_dst, Imm 42));
      one (Move (r_dst, Reg r_x));
      one (Unop (r_dst, Neg, Reg r_x));
      one (Unop (r_dst, Not, Reg r_z));
      one (Unop (r_dst, Neg, Imm 9));
      one (Unop (r_dst, Not, Imm 0));
      one (Unop (r_dst, Not, Imm 3));
      (* fields: register and immediate objects, null, unresolved *)
      [ Put_field (Reg r_obj, fa, Reg r_x); Get_field (r_dst, Reg r_obj, fa) ];
      [ Put_field (Reg r_obj, fa, Imm 5); Get_field (r_dst, Imm 1, fa) ];
      [ Put_field (Imm 1, fa, Reg r_y); Get_field (r_dst, Reg r_obj, fa) ];
      one (Get_field (r_dst, Imm 2, fa)) (* heap cell 2 is the array *);
      one (Get_field (r_dst, Imm 0, fa));
      one (Put_field (Imm 0, fa, Imm 1));
      one (Get_field (r_dst, Reg r_obj, nope));
      one (Get_field (r_dst, Imm 0, nope));
      one (Put_field (Reg r_obj, nope, Imm 1));
      (* statics, resolved and not *)
      [ Put_static (fs, Reg r_y); Get_static (r_dst, fs) ];
      [ Put_static (fs, Imm 77); Get_static (r_dst, fs) ];
      one (Get_static (r_dst, nope));
      one (Put_static (nope, Reg r_x));
      (* allocation *)
      one (New_object (r_dst, "P"));
      one (New_object (r_dst, "Nope"));
      (* arrays: in and out of bounds, immediates, wrong kind, null *)
      [
        Binop (r_t, And, Reg r_i, Imm 3);
        Array_store (Reg r_arr, Reg r_t, Reg r_x);
        Array_load (r_dst, Reg r_arr, Reg r_t);
      ];
      [
        Array_store (Reg r_arr, Imm 1, Imm 9); Array_load (r_dst, Imm 2, Imm 1);
      ];
      [
        Array_store (Imm 2, Imm 3, Reg r_y);
        Array_load (r_dst, Reg r_arr, Imm 3);
      ];
      one (Array_load (r_dst, Reg r_arr, Reg r_i));
      one (Array_load (r_dst, Reg r_arr, Reg r_z));
      one (Array_store (Reg r_arr, Reg r_i, Imm 1));
      one (Array_store (Reg r_arr, Imm (-1), Imm 1));
      one (Array_load (r_dst, Reg r_obj, Imm 0));
      one (Array_load (r_dst, Imm 0, Imm 0));
      one (Array_length (r_dst, Reg r_arr));
      one (Array_length (r_dst, Imm 2));
      one (Array_length (r_dst, Reg r_obj));
      one (Array_length (r_dst, Imm 0));
      (* instance tests: hit, other kind, null, dangling, unknown class *)
      one (Instance_test (r_dst, Reg r_obj, "P"));
      one (Instance_test (r_dst, Reg r_arr, "P"));
      one (Instance_test (r_dst, Imm 0, "P"));
      one (Instance_test (r_dst, Imm 99, "P"));
      one (Instance_test (r_dst, Reg r_obj, "Nope"));
      one (Instance_test (r_dst, Imm 1, "Main"));
      (* intrinsics, with and without a destination *)
      one (Intrinsic { dst = None; name = "print"; args = [ Reg r_x ] });
      one (Intrinsic { dst = Some r_dst; name = "print"; args = [ Imm 8 ] });
      one (Intrinsic { dst = Some r_dst; name = "rand"; args = [ Reg r_i ] });
      one (Intrinsic { dst = Some r_dst; name = "rand"; args = [ Imm 1000 ] });
      [
        Intrinsic { dst = None; name = "rand"; args = [ Reg r_y ] };
        Intrinsic { dst = Some r_dst; name = "rand"; args = [ Imm 50 ] };
      ];
      one (Intrinsic { dst = None; name = "rand"; args = [ Imm 7 ] });
    ]

(* non-trapping events every few cycles: the guard gate trips on almost
   every word, so fused runs and traces decline their prechecks *)
let dense_faults =
  let actions =
    Fault.
      [|
        Spurious_timer;
        Corrupt_sample_counter 1;
        Flush_icache;
        Flush_dcache;
      |]
  in
  Fault.make
    (List.init 2000 (fun k ->
         { Fault.at_cycle = 5 + (7 * k); action = actions.(k mod 4) }))

let straight_line_opcodes () =
  let outcome ~engine ?trace_threshold ~dcache ?faults body =
    match
      observe ~engine ?trace_threshold ~dcache ?faults sl_classes
        [ sl_main body ] Core.Sampler.Never
    with
    | obs -> Ok obs
    | exception Vm.Interp.Runtime_error msg -> Error msg
  in
  let traced = ref 0 in
  List.iter
    (fun body ->
      let name =
        String.concat "; " (List.map (Format.asprintf "%a" Ir.Pp.instr) body)
      in
      List.iter
        (fun (dcache, faults, fname) ->
          let oracle = outcome ~engine:`Ref ~dcache ?faults body in
          List.iter
            (fun (ename, engine, trace_threshold) ->
              let t0 = List.assoc "EV_TRACE" (Vm.Trace.stats ()) in
              let obs = outcome ~engine ?trace_threshold ~dcache ?faults body in
              traced :=
                !traced + List.assoc "EV_TRACE" (Vm.Trace.stats ()) - t0;
              if obs <> oracle then
                Alcotest.failf "%s diverges from Ref on [%s] (d-cache %b, %s)%s"
                  ename name dcache fname
                  (match (oracle, obs) with
                  | Error a, Error b -> Printf.sprintf ": %S vs %S" a b
                  | Error a, Ok _ -> Printf.sprintf ": Ref raised %S" a
                  | Ok _, Error b -> Printf.sprintf ": raised %S" b
                  | Ok _, Ok _ -> ""))
            [ ("Fast", `Fast, None); ("traced", `Fast, Some 1) ])
        [
          (true, None, "no faults");
          (false, None, "no faults");
          (true, Some dense_faults, "dense faults");
          (false, Some dense_faults, "dense faults");
        ])
    sl_cases;
  (* the traced runs must actually have run fused traces *)
  if !traced = 0 then Alcotest.fail "no case ever entered a compiled trace"

let suite =
  [
    ( "engine",
      Alcotest.test_case "Fast == Ref on seeded programs" `Quick seeded_agree
      :: Alcotest.test_case "straight-line opcodes: Fast == traced == Ref"
           `Quick straight_line_opcodes
      :: List.map
           (QCheck_alcotest.to_alcotest ~long:false)
           [ engines_agree ] );
  ]
