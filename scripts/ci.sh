#!/usr/bin/env bash
# Full local CI: build, test, lints, then the chaos suites.
#
# Everything runs --offline — all dependencies are path/vendored, so CI
# must never touch the network. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors everywhere below.
export RUSTFLAGS="-D warnings"

echo "== build (release) =="
cargo build --release --offline

echo "== examples (release) =="
cargo build --release --offline --examples

echo "== test =="
cargo test -q --offline

# The benchmark package is a workspace of its own (path dependencies on
# crates/*), so the root build and test never compile it. Build it here:
# a product-crate API change that breaks it must fail CI, not the
# benchmark driver.
echo "== benchmark package builds against the product crates (release) =="
cargo build --release --offline --manifest-path virt_bench/Cargo.toml

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
# Product crates only — the vendored shims under vendor/ are
# API-compatibility stand-ins, not ours to polish.
cargo clippy --offline --all-targets \
    -p virt-metrics -p virt-xml -p hypersim -p virt-rpc -p virt-core \
    -p virtd -p virt-fleet -p virsh -p virt-suite \
    -- -D warnings

# The public surface is what something outside its crate uses: a `pub`
# item in a private module is demoted or re-exported (`unreachable_pub`),
# and tests/pub_surface.rs holds every `pub` item to an outside name.
echo "== surface: no unreachable pub in the library crates; every pub item named outside its crate =="
cargo clippy --offline --lib \
    -p virt-metrics -p virt-xml -p hypersim -p virt-rpc -p virt-core \
    -p virtd -p virt-fleet -p virsh \
    -- -D warnings -D unreachable_pub
cargo test -q --offline --test pub_surface

echo "== hygiene: no dead_code allows in the product crates =="
if grep -rn 'allow(dead_code)' crates/rpc crates/core crates/daemon crates/cli crates/fleet; then
    echo "error: new #[allow(dead_code)] in a product crate — delete the dead code instead" >&2
    exit 1
fi

# The client session decides and the reconnecting client acts: neither
# reads the clock nor sleeps but through the one Clock (clock.rs), so the
# unit tests walk the retry ladder and the breaker's cool-down in virtual
# time, and a test waits out none of it.
echo "== hygiene: the client session reads the time and sleeps only through its Clock =="
for f in crates/rpc/src/reconnect.rs crates/rpc/src/session.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Instant::now\(\)|thread::sleep'; then
        echo "error: a clock read or sleep in the product part of $f — go through crate::clock::Clock" >&2
        exit 1
    fi
done

# The guard machine decides and the engine acts: the machine is handed
# the time and reads no clock, never sleeps, takes no lock and calls no
# driver, so its explorer walks every order of inputs on synthetic
# instants.
echo "== hygiene: the guard machine reads no clock, takes no lock and calls no driver =="
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/guard/machine.rs \
    | grep -nE 'Instant::now\(\)|thread::sleep|parking_lot|HypervisorConnection'; then
    echo "error: a clock read, sleep, lock or driver call in the product part of crates/core/src/guard/machine.rs — the engine (guard.rs) does those" >&2
    exit 1
fi

# The statestore's queue machine decides and the persister acts: the
# machine is handed the time and reads no clock, never sleeps, takes no
# lock and touches no file, so its explorer walks every order of inputs
# on synthetic instants.
echo "== hygiene: the statestore queue machine reads no clock, takes no lock and touches no file =="
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/statestore/queue.rs \
    | grep -nE 'Instant::now\(\)|thread::sleep|parking_lot|Condvar|std::fs|\bFile\b'; then
    echo "error: a clock read, sleep, lock or file access in the product part of crates/core/src/statestore/queue.rs — the persister (statestore.rs) does those" >&2
    exit 1
fi

# The event core's turn machine decides who runs a connection's turn and
# the event threads act: the machine takes no lock, reads no clock,
# sleeps not and touches no fd or atomic, so its explorer walks every
# interleaving of two and three threads over events, ready-list
# re-queues and teardowns.
echo "== hygiene: the event core's turn machine takes no lock, reads no clock and makes no syscall =="
if sed '/^#\[cfg(test)\]/,$d' crates/daemon/src/eventloop/turn.rs \
    | grep -nE 'Instant::now\(\)|thread::sleep|parking_lot|Mutex|Condvar|Atomic|Poller|unsafe|std::(io|fs|net|os)'; then
    echo "error: a lock, clock read, sleep, atomic or syscall in the product part of crates/daemon/src/eventloop/turn.rs — the event threads (eventloop.rs) do those" >&2
    exit 1
fi

# A subscribed connection's listener never blocks in a receive: it waits
# on its own poller for the connection's watch, which is armed only while
# no call is in flight, and reads what has arrived without waiting — so
# a caller always reads its own reply. A blocking receive in the
# functions the listener runs would take the socket from the callers
# again. (try_recv_frame is the non-blocking one, and is not matched.)
echo "== hygiene: no blocking receive in the client listener's loop =="
listener_body=$(awk '
    match($0, /^ *(pub(\(crate\))? )?fn (listener_loop|look|route_arrived)[(<]/) {
        match($0, /^ */); indent = substr($0, 1, RLENGTH); on = 1
    }
    on { print FNR ": " $0 }
    on && $0 == indent "}" { on = 0 }' crates/rpc/src/client.rs)
if [ "$(grep -cE 'fn (listener_loop|look|route_arrived)[(<]' <<<"$listener_body")" -ne 3 ]; then
    echo "error: listener_loop, look or route_arrived not found in crates/rpc/src/client.rs — point this gate at the listener's loop" >&2
    exit 1
fi
if grep -wE 'recv_frame|recv_frame_into|recv_frame_until' <<<"$listener_body"; then
    echo "error: a blocking receive in the client listener's loop (crates/rpc/src/client.rs) — the listener waits on its watch and reads with try_recv_frame" >&2
    exit 1
fi

# In-process connections are socketpairs on the socket path: the daemon
# has one kind of polled connection and the client one kind of watch. No
# product source names the channel transport's machinery, so dropping the
# vendored crossbeam shim takes only manifest edits.
echo "== hygiene: no channel transport — no crossbeam, ready notifier or Readiness::Notify in crates/*/src =="
if grep -rnE 'crossbeam|set_ready_notifier|ReadyNotifier|Readiness::Notify' crates/*/src; then
    echo "error: the channel transport's machinery named under crates/*/src — in-process connections are socketpairs (transport::memory_pair)" >&2
    exit 1
fi

# A daemon client is written to through its sink (eventloop.rs's
# ConnSink), built with it at admission: no reply path writes to a
# transport around it. Bytes are counted where every connection passes
# (Server::process_frame in, ConnSink::send_wire out), so no wrapper
# transport counts them a second way.
echo "== hygiene: daemon writes go through the connection sink; no metering wrapper =="
for f in crates/daemon/src/*.rs; do
    [ "$f" = crates/daemon/src/eventloop.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nwE 'send_framed?'; then
        echo "error: a transport write in the product part of $f — reply through ClientHandle::send" >&2
        exit 1
    fi
done
if grep -rn 'MeteredTransport' crates; then
    echo "error: MeteredTransport under crates/ — the sink and process_frame count every connection" >&2
    exit 1
fi

# Each procedure is described once, in the table macros of the two
# protocol files; a classifier kept by hand beside them can silently miss
# a row. (A row without a dispatch arm is tests/wire_procedures.rs's job.)
# Procedure constants live inside `mod proc`, hence indented; top-level
# u32 constants such as METRIC_KIND_* are not procedure numbers.
echo "== hygiene: no hand-kept procedure lists beside the tables =="
for f in crates/core/src/protocol.rs crates/daemon/src/adminproto.rs; do
    if grep -nE '^[[:space:]]+pub const [A-Z0-9_]+: u32 =' "$f" || grep -qPzo 'matches!\(\s*procedure' "$f"; then
        echo "error: hand-kept procedure constant or matches!(procedure, ..) list in $f — add a table row instead" >&2
        exit 1
    fi
done

# The rules that turn a row's shape into a stub and into a dispatch arm
# exist once, in protocol.rs (procedure_stub!, procedure_arm!); a
# program's callback only strips its own columns. And vadm spells the
# typed-parameter names through adminproto::PARAM_*, not as literals.
echo "== hygiene: one copy of the row expanders; no typed-parameter name literals in vadm =="
if grep -nE '\(@(sig|own|args|pass|call)\b' \
    crates/daemon/src/admin.rs crates/core/src/drivers/remote.rs crates/daemon/src/dispatch.rs; then
    echo "error: a row-shape rule outside protocol.rs — extend procedure_stub!/procedure_arm! instead" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/cli/src/admin.rs \
    | grep -nE '"(minWorkers|maxWorkers|prioWorkers|nclients_max)"'; then
    echo "error: typed-parameter name as a literal in vadm — use adminproto::PARAM_*" >&2
    exit 1
fi

# A metric is a row of a metric_set! table, and Registry::adopt is the one
# way into a registry: no second registration API, and no handle made by
# hand outside the metrics crate — it comes from a set or from Registry.
# (Test modules, after a file's #[cfg(test)], may build loose handles.)
echo "== hygiene: every metric from a metric_set! row or the registry =="
if grep -rnE 'register_(counter|gauge|histogram)\b' --include='*.rs' crates src tests examples virt_bench; then
    echo "error: register_counter/_gauge/_histogram — declare a metric_set! row, or call Registry::adopt" >&2
    exit 1
fi
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/metrics/src/*'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'Arc::new\(((virt_metrics|virt_core::metrics)::)?(Counter|Gauge|Histogram)::new\(\)\)'; then
        echo "error: hand-made metric handle in $f — add a metric_set! row or use Registry::counter/gauge/histogram" >&2
        exit 1
    fi
done

# Bulk stats have one path: a driver implements the visitor
# (for_each_domain_stats) and get_all_domain_stats is the trait's provided
# method that collects it — no driver collects a second way. (Connect's
# public method of that name forwards to the trait's.)
echo "== hygiene: get_all_domain_stats is collected in driver.rs only =="
if grep -rn 'fn get_all_domain_stats' crates --include='*.rs' \
    | grep -v -e '^crates/core/src/driver.rs:' -e '^crates/core/src/conn.rs:'; then
    echo "error: a get_all_domain_stats body outside driver.rs — implement for_each_domain_stats instead" >&2
    exit 1
fi

# A reply record is defined once (the API struct plus one xdr_fields!
# line) and every list reply is a Vec through the one codec in xdr.rs.
# The two shapes the old copies took: a `Wire*List` newtype (the
# bulk-stats list, with its exact-size encoder, is the one exception) and
# the copied length-prefixed decode loop (typedparam.rs sizes its own by
# the bytes behind the count).
echo "== hygiene: no Wire*List newtypes, no second list decode loop =="
if grep -rnE 'struct Wire\w*List' crates --include='*.rs' | grep -v 'struct WireDomainStatsList'; then
    echo "error: new Wire*List newtype — a list reply is a Vec<T>; xdr.rs has the codec" >&2
    exit 1
fi
if grep -rnF 'with_capacity((len as usize).min(4096))' crates --include='*.rs' \
    | grep -v -e '^crates/rpc/src/xdr.rs:' -e '^crates/core/src/typedparam.rs:'; then
    echo "error: a second length-prefixed list decode loop — use Vec<T>'s XdrDecode" >&2
    exit 1
fi

# A reply record is its own wire form: a layout that differs from the
# record's fields is a codec written beside the type (DomainRecord's id,
# NetworkRecord's leases), not a Wire* twin with conversions both ways.
# The twins left, each for a reason a record's own codec cannot meet:
#   WireGuardStatus - a policy kind this build does not know drops that
#                     entry of GUARD_LIST, where a failed decode would
#                     fail the whole list;
#   WireMetric      - MetricSnapshot's value enum travels flattened into
#                     scalar fields, and the benchmark package names it;
#   WireTraceEvent  - a stage or phase a newer daemon adds drops that
#                     event of TRACE_DUMP, not the whole dump.
echo "== hygiene: no Wire* twin of a record beside its codec, bar the allowlisted =="
for f in crates/core/src/protocol.rs crates/daemon/src/adminproto.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'impl From<[^>]*> for Wire[A-Za-z0-9_]+|impl From<Wire[A-Za-z0-9_]+> for ' \
        | grep -vwE 'Wire(GuardStatus|Metric|TraceEvent)'; then
        echo "error: a conversion between a record and a Wire* twin in $f — give the record an XDR codec (an xdr_fields! line, or one written beside the type) and a plain(..) row" >&2
        exit 1
    fi
done

# A wire enum states its numbers and names once, in its wire_enum! rows
# (crates/metrics/src/wire_enum.rs generates the conversions); a type's
# rule for a number it does not know is a From/TryFrom wrapper beside the
# table. A hand-written conversion is a second table that can drift.
echo "== hygiene: no hand-written wire enum conversions beside the wire_enum! tables =="
if grep -rnE 'fn as_u32\(self\)|fn from_u32\(|fn from_number\(' crates/*/src --include='*.rs' \
    | grep -v '^crates/metrics/src/wire_enum.rs:'; then
    echo "error: hand-written as_u32/from_u32/from_number — declare the enum with virt_metrics::wire_enum!" >&2
    exit 1
fi

# A decoder reads the borrowed view (virt_xml::Document); an owned
# Element tree built only to be read and dropped is the cost the define
# path shed. (error.rs parses one in a unit test of the error conversion;
# the CLI parses one to pretty-print it.)
echo "== hygiene: no decoder builds an Element tree to throw away =="
if grep -rn 'Element::parse' crates/core/src crates/daemon/src crates/fleet/src crates/rpc/src \
    | grep -v '^crates/core/src/error.rs:'; then
    echo "error: Element::parse in a product decoder — read the document through virt_xml::Document" >&2
    exit 1
fi

# Both programs byte for byte: every frame of a scripted session of each
# against golden transcripts captured before the tables and records were
# folded, plus the per-record codec literals.
# The metric catalogue likewise: name, kind and help of every metric of a
# daemon, the process registry and a fleet, against a golden list, and
# every family of it documented in docs/observability.md. And every wire
# enum's numbers and names, against the list the hand-written conversions
# produced.
echo "== wire: remote and admin programs pinned to golden bytes; metric catalogue and wire enums pinned =="
cargo test -q --offline --test wire_procedures --test admin_wire --test metric_catalogue --test wire_enums
cargo test -q --offline -p virt-core --test wire_golden
# The other side of the trust boundary: a document nested 100 000 deep, or
# an element with 50 000 attributes, sent to each procedure that takes XML
# gets an error reply from a daemon that goes on serving.
cargo test -q --offline --test hostile_xml

# Perf smoke: the framing hot path must stay allocation-free once warm.
# Release mode — the counting-allocator bound is calibrated for it, and
# debug-mode Vec growth heuristics differ.
echo "== perf smoke (zero-alloc framing hot path, buffered receive + warm TLS-sim record layer, release) =="
cargo test -q --release --offline -p virt-rpc --test framing_hotpath

# Structural, not timed: a lone caller reads its own reply — context
# switches within 1.25x a by-hand send-then-receive and <= 2 allocations
# per call on the calling thread, no thread per connection, and by the
# stub's own counters every reply read by its caller (depth 1) or by its
# caller or filed for it (16 callers). The same depth-1 counts and
# switches on a subscribed connection, one whose listener watches the
# socket only while no call is in flight: [CALLS, 0, 0, 0] direct /
# routed / hand-offs / late. Then the hand-off under scheduler pressure:
# 8 callers x 20 k calls on one pinned CPU (the tests pin themselves), no
# call may wait out its 2 s timeout.
echo "== perf guard (client stub: the caller reads its own reply, subscribed or not; baton hand-off stress, release) =="
cargo test -q --release --offline -p virt-rpc --test client_hotpath --test client_handoff_stress

# Structural, not timed: by the daemon's own read_calls/write_calls
# counters a 16-call burst costs <= 2 reads and <= 2 writes, a lone call
# <= 1 read and exactly 1 write — plus the burst paths' regression tests
# (budget re-queue, resume from the buffer). And the burst's wakes: with
# an idle pool a pooled call starts only after the inline frames behind
# it were handed up, and a hung pooled call — on a worker or kept by an
# event thread — strands none of the calls queued behind it (fails by
# deadline with one wake per turn). And the kept call, by the pool's and
# the event core's counters: a lone pooled call while a second event
# thread waits wakes 0 workers and is 1 kept call; with that thread hung
# in a kept call the next pooled call goes to the pool, and inline calls
# and pings on both connections are answered. A dispatcher panicking on
# pooled or on inline calls costs no thread (fails by deadline where it
# does).
echo "== perf guard (event loop: one read and one write per burst, wakes at its end, kept calls, release) =="
cargo test -q --release --offline -p virtd --test eventloop_burst --test pooled_burst

# Bulk stats: a daemon's reply, written row by row as the embedded
# driver visits its host, allocates the same at 100 domains as at 1000
# (no record per domain); collecting, and encode + decode of a
# 1000-record reply, stay within two allocations per record (the name and
# the parameter Vec) — no per-parameter field-name Strings.
echo "== perf smoke (bulk-stats reply and codec allocation budgets, release) =="
cargo test -q --release --offline -p virt-core --test bulk_stats_allocs

# Define: decoding the workload's 4-disk domain description allocates what
# the DomainConfig keeps plus a constant for the borrowed view — no tree
# built to be thrown away — and Element::parse no more than it used to.
echo "== perf guard (define decode allocation budget, release) =="
cargo test -q --release --offline -p virt-core --test define_allocs

# Tracing must be free when off: the disabled span path performs no
# allocations and a disabled span costs < 50 ns. Release mode for the
# same calibration reasons as above.
echo "== perf smoke (disabled-tracing overhead, release) =="
cargo test -q --release --offline -p virt-metrics --test trace_overhead
# ... and lossless when dumped: under a live writer every event comes out
# of exactly one `drain_and_clear` (0 of 200 000 lost, none twice).
cargo test -q --release --offline -p virt-metrics --test recorder_drain_and_clear

# The event loops must hold 1000 idle connections with a flat thread
# count, flat RSS, and a bounded accept-latency distribution. Release
# mode and explicitly un-ignored: the test wants real codegen and
# ~2000 fds.
echo "== perf smoke (event loop: 1000 idle connections, release) =="
cargo test -q --release --offline -p virtd --test eventloop_smoke -- --ignored

# Experiment shapes held on counts and virtual time, in release: the
# pre-copy sweeps pinned row by row; an abort costs at most two slices at
# 1024 and 8192 MiB; 20 overlapping migrations off a slow source, 0 failed
# and single residency; 8 crash-loopers all give up at the cap with 0
# revivals while tenants are served; spread placement over sequential
# creates within one domain of balance.
echo "== experiment shapes (migration sweeps, abort cost, storm, crash-loopers, spread; release) =="
cargo test -q --release --offline -p virt-suite -p virt-fleet \
    --test migration_remote --test jobs --test guard --test federation -- \
    precopy_total_grows_with_memory abort_mid_migration crash_looper_hits_the_backoff_cap \
    concurrent_migration_storm spread_placement_balances

# Durability end to end, over the one write path there is: a statedir
# daemon serves lifecycle cycles, is SIGKILLed and restarted; exit code 0
# only if recovered == acknowledged and nothing was quarantined.
echo "== durability smoke (lifecycle_durable_unix: SIGKILL, restart, recovered == acknowledged) =="
cargo run -q --release --offline --manifest-path virt_bench/Cargo.toml -- \
    --workload lifecycle_durable_unix --seed 1 --seconds 2 --trace 0 --smoke

# Release perf guard: counter-based batching/coalescing contract — K
# back-to-back status writes to one domain take ≤ 2 fsync cycles, and
# concurrent durable writers share cycles. Structural, not timed, so it
# holds on loaded CI machines.
echo "== perf guard (statestore coalescing contract, release) =="
cargo test -q --release --offline -p virt-core --test statestore_perf

# Chaos suites last: they SIGKILL real daemon processes and churn
# temp state directories, so everything cheap fails first.
echo "== chaos (connection resilience) =="
cargo test -q --offline --test resilience

echo "== chaos (fleet: SIGKILL members under a live fleet manager) =="
cargo test -q --offline --test fleet

echo "== chaos (guard: 50-domain crash storm, crash-loopers, guarded-member SIGKILL) =="
cargo test -q --offline --test guard

echo "== chaos (domain jobs) =="
cargo test -q --offline --test jobs

# The `statedir` filter also takes the in-process UUID tests: three lives
# of one daemon never reissue a recovered domain's UUID, and a UUID
# conflict in the directory is quarantined, not a boot failure.
echo "== chaos (crash recovery: kill -9 a statedir daemon, respawn, torn files, UUIDs across lives) =="
cargo test -q --offline --test resilience -- statedir torn_state_file sigkill_mid_batch

echo "== fault injection (state store: failed + torn writes) =="
cargo test -q --offline -p virt-core --lib statestore

# The simulated host's two index keys (name, UUID) agree after every step
# of a random walk over define, undefine, demote, create/destroy, crash,
# host restart, import, adopt and forget — at 2048 walks, not the default 64.
echo "== property walk (hypersim domain table: name and UUID keys agree, release) =="
PROPTEST_CASES=2048 cargo test -q --release --offline -p hypersim --test properties uuid_index

# The bulk-stats visitor against the list-then-query reference — reply
# bytes, clock, fault-plan counts, the batched QueryDomain charge's jitter
# draws and Hangs — and the remote driver against the embedded one, at
# 1024 cases per property.
echo "== property walk (bulk stats: visitor, batched charge and remote reader match the reference, release) =="
PROPTEST_CASES=1024 cargo test -q --release --offline -p virt-core --test bulk_stats_equivalence

echo "CI OK"
