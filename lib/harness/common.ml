(* Shared experiment configuration. *)

let both_specs = Core.Spec.combine [ Core.Spec.call_edge; Core.Spec.field_access ]

let sample_intervals = [ 1; 10; 100; 1_000; 10_000; 100_000 ]

let benchmarks () = Workloads.Suite.all

(* Perfect profiles (sample interval 1 — all execution in duplicated
   code).  The run itself is memoized by Measure's run cache under its
   full run key. *)
let perfect_profiles (build : Measure.build) =
  let m =
    Measure.run_transformed ~trigger:Core.Sampler.Always
      ~transform:(Core.Transform.full_dup both_specs)
      build
  in
  ( Profiles.Call_edge.to_keyed
      m.Measure.collector.Profiles.Collector.call_edges,
    Profiles.Field_access.to_keyed m.Measure.collector.Profiles.Collector.fields
  )

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
