type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  ledger : Ledger.t;
  timeline : Timeline.t;
  spans : Span.t;
}

let none =
  {
    metrics = Metrics.none;
    trace = Trace.none;
    ledger = Ledger.none;
    timeline = Timeline.none;
    spans = Span.none;
  }

let create ?(metrics = true) ?(trace = true) ?(ledger = false) ?(timeline_interval = 0)
    ?(spans = false) () =
  {
    metrics = (if metrics then Metrics.create () else Metrics.none);
    trace = (if trace then Trace.create () else Trace.none);
    ledger = (if ledger then Ledger.create () else Ledger.none);
    timeline =
      (if timeline_interval > 0 then Timeline.create ~interval:timeline_interval ()
       else Timeline.none);
    spans = (if spans then Span.create () else Span.none);
  }
