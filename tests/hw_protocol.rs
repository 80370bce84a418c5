//! Protocol walk-through: the paper's §VI example through the live pattern
//! classifier and migration planner, and the wire sizes of the messages the
//! engine sends for it.

use altocumulus::hw::messages::{Descriptor, Message, DESCRIPTOR_BYTES, HEADER_BYTES};
use altocumulus::runtime::patterns::{classify, plan_migrations, Pattern};
use simcore::time::SimTime;
use workload::request::RequestId;

fn descriptors(range: std::ops::Range<u64>) -> Vec<Descriptor> {
    range
        .map(|i| Descriptor {
            id: RequestId(i),
            trace_idx: i as usize,
            first_enqueued: SimTime::ZERO,
        })
        .collect()
}

/// The paper's §VI walk-through: Bulk=40, Concurrency=4, q=[30,30,70,30].
/// The 3rd queue's manager sends one MIGRATE of 10 descriptors to each of
/// the other queues.
#[test]
fn section_6_walkthrough_end_to_end() {
    let q = [30u32, 30, 70, 30];
    assert_eq!(classify(&q, 40), Some(Pattern::Hill));

    let orders = plan_migrations(2, &q, usize::MAX, 40, 4);
    assert_eq!(
        orders.iter().map(|o| o.dst).collect::<Vec<_>>(),
        vec![0, 1, 3]
    );

    let mut next_id = 0u64;
    for order in &orders {
        assert_eq!(order.count, 10, "Bulk / Concurrency descriptors each");
        let msg = Message::Migrate {
            src: 2,
            dst: order.dst,
            descriptors: descriptors(next_id..next_id + order.count as u64),
            token: 0,
        };
        next_id += order.count as u64;
        assert_eq!(msg.wire_bytes(), HEADER_BYTES + 10 * DESCRIPTOR_BYTES);
    }
}

/// A MIGRATE that lands on a full receive FIFO bounces as a NACK. The
/// descriptors ride back in the simulated message so the source can restore
/// them, but on the wire the NACK is header-only: in hardware they never
/// left the source's MRs.
#[test]
fn nack_on_full_receive_fifo() {
    let nack = Message::Nack {
        src: 1,
        descriptors: descriptors(100..108),
        token: 0,
    };
    assert_eq!(
        nack.wire_bytes(),
        HEADER_BYTES,
        "NACK is header-only on the wire"
    );
}
