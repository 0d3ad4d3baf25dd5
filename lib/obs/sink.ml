type t = { metrics : Metrics.t; trace : Trace.t; ledger : Ledger.t; spans : Span.t }

let none = { metrics = Metrics.none; trace = Trace.none; ledger = Ledger.none; spans = Span.none }

let create ?(metrics = true) ?(trace = true) ?(ledger = false) ?(timeline_interval = 0)
    ?(spans = false) () =
  let log = Trace.create ~events:trace ~interval:timeline_interval ~spans () in
  {
    metrics = (if metrics then Metrics.create () else Metrics.none);
    trace = log;
    ledger = (if ledger then Ledger.create () else Ledger.none);
    spans = log;
  }
