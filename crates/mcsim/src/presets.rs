//! Machine presets.
//!
//! The five paper platforms (Section 2.1) are modelled with the exact
//! published structure and, where the paper prints them, the exact
//! latency/bandwidth numbers (Figs. 1-3, 6, 7). Synthetic shapes cover
//! corner cases that the evaluation machines do not.

use crate::interconnect::{
    Interconnect,
    Link, //
};
use crate::machine::{
    CacheLevel,
    IntraLevel,
    MachineSpec,
    MemSpec,
    Numbering,
    PowerSpec, //
};

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// Intel Xeon Ivy Bridge: 2 x E5-2680 v2, 10 cores/socket, SMT-2,
/// 40 contexts. The running example of Fig. 6: SMT latency 28 cy,
/// intra-socket 112 cy, cross-socket 308 cy.
pub fn ivy() -> MachineSpec {
    MachineSpec {
        name: "ivy".into(),
        freq_ghz: 2.8,
        sockets: 2,
        cores_per_socket: 10,
        smt_per_core: 2,
        nodes: 2,
        smt_latency: 28,
        intra_levels: vec![IntraLevel {
            group_cores: 10,
            latency: 112,
        }],
        interconnect: Interconnect::full(2, 188, 120, 16.0),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 12,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 25 * MB,
                latency: 42,
                shared_by_cores: 10,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 128.0,
            local_latency: 280,
            hop_penalty: 120,
            local_bandwidth: 24.3,
            remote_bandwidth: 16.0,
            per_core_stream_bw: 6.1,
        },
        power: PowerSpec {
            socket_base_w: 20.1,
            core_w: 3.5,
            smt_w: 1.16,
            dram_w: 45.2,
            has_rapl: true,
        },
        numbering: Numbering::CoresFirst,
        local_node_of_socket: vec![0, 1],
        os_node_of_socket: vec![0, 1],
    }
}

/// Intel Xeon Westmere: 8 x E7-8867L, 10 cores/socket, SMT-2,
/// 160 contexts (Fig. 2). SMT 28 cy, intra-socket 116 cy, direct
/// cross-socket 341 cy, two-hop 458 cy. Two fully-connected quads with
/// two cross links per socket.
pub fn westmere() -> MachineSpec {
    let mut links = Vec::new();
    // Quads {0,1,2,3} and {4,5,6,7} fully connected.
    for base in [0usize, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                links.push(Link {
                    a: base + i,
                    b: base + j,
                    wire: 117,
                    bandwidth: 10.9,
                });
            }
        }
    }
    // Each socket of quad 0 links to two sockets of quad 1.
    for i in 0..4usize {
        links.push(Link {
            a: i,
            b: i + 4,
            wire: 117,
            bandwidth: 10.9,
        });
        links.push(Link {
            a: i,
            b: (i + 1) % 4 + 4,
            wire: 117,
            bandwidth: 8.6,
        });
    }
    MachineSpec {
        name: "westmere".into(),
        freq_ghz: 2.1,
        sockets: 8,
        cores_per_socket: 10,
        smt_per_core: 2,
        nodes: 8,
        smt_latency: 28,
        intra_levels: vec![IntraLevel {
            group_cores: 10,
            latency: 116,
        }],
        interconnect: Interconnect::new(8, 224, links),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 11,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 30 * MB,
                latency: 46,
                shared_by_cores: 10,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 64.0,
            // Fig. 2a: local 369 cy / 13.1 GB/s; one hop ~497, two ~603.
            local_latency: 369,
            hop_penalty: 128,
            local_bandwidth: 13.1,
            remote_bandwidth: 10.9,
            per_core_stream_bw: 3.3,
        },
        power: PowerSpec {
            socket_base_w: 32.0,
            core_w: 6.0,
            smt_w: 1.8,
            dram_w: 50.0,
            has_rapl: false,
        },
        numbering: Numbering::SocketInterleaved,
        local_node_of_socket: (0..8).collect(),
        os_node_of_socket: (0..8).collect(),
    }
}

/// Intel Xeon Haswell: 4 x E7-4830 v3, 12 cores/socket, SMT-2,
/// 96 contexts. Fully-connected QPI (no graph printed in the paper).
pub fn haswell() -> MachineSpec {
    MachineSpec {
        name: "haswell".into(),
        freq_ghz: 2.7,
        sockets: 4,
        cores_per_socket: 12,
        smt_per_core: 2,
        nodes: 4,
        smt_latency: 26,
        intra_levels: vec![IntraLevel {
            group_cores: 12,
            latency: 110,
        }],
        interconnect: Interconnect::full(4, 200, 120, 12.8),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 12,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 30 * MB,
                latency: 44,
                shared_by_cores: 12,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 256.0,
            local_latency: 300,
            hop_penalty: 115,
            local_bandwidth: 31.5,
            remote_bandwidth: 12.8,
            per_core_stream_bw: 7.0,
        },
        power: PowerSpec {
            socket_base_w: 18.0,
            core_w: 4.2,
            smt_w: 1.3,
            dram_w: 40.0,
            has_rapl: true,
        },
        numbering: Numbering::SocketInterleaved,
        local_node_of_socket: vec![0, 1, 2, 3],
        os_node_of_socket: vec![0, 1, 2, 3],
    }
}

/// AMD Opteron: 4 x Opteron 6172 multi-chip modules = 8 dies ("sockets"),
/// 6 cores each, no SMT, 48 contexts (Fig. 1). Three cross-socket
/// levels: 197 cy inside an MCM, 217 cy over a direct HyperTransport
/// link, 300 cy over two hops ("level 4" in Fig. 1b).
///
/// The paper's machine had a *misconfigured OS node mapping*
/// (footnote 1): the OS view shipped here is wrong in the same way,
/// while the physical mapping is the identity. MCTOP-ALG + the memory
/// plugin must recover the physical one.
pub fn opteron() -> MachineSpec {
    let mut links = Vec::new();
    // MCM-internal links: 197 = 114 + 83.
    for m in 0..4usize {
        links.push(Link {
            a: 2 * m,
            b: 2 * m + 1,
            wire: 83,
            bandwidth: 5.3,
        });
    }
    // Direct HyperTransport links: even dies fully connected, odd dies
    // fully connected: 217 = 114 + 103.
    for i in 0..4usize {
        for j in (i + 1)..4 {
            links.push(Link {
                a: 2 * i,
                b: 2 * j,
                wire: 103,
                bandwidth: 3.0,
            });
            links.push(Link {
                a: 2 * i + 1,
                b: 2 * j + 1,
                wire: 103,
                bandwidth: 2.8,
            });
        }
    }
    // Remaining pairs (even-odd across MCMs) route MCM + HT:
    // 114 + 83 + 103 = 300 cycles, matching "level 4 (2 hops) 300 cy".
    MachineSpec {
        name: "opteron".into(),
        freq_ghz: 2.1,
        sockets: 8,
        cores_per_socket: 6,
        smt_per_core: 1,
        nodes: 8,
        smt_latency: 0,
        intra_levels: vec![IntraLevel {
            group_cores: 6,
            latency: 117,
        }],
        interconnect: Interconnect::new(8, 114, links),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 64 * KB,
                latency: 3,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 512 * KB,
                latency: 15,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 5 * MB,
                latency: 40,
                shared_by_cores: 6,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 16.0,
            // Fig. 1a: local 143 cy / 10.9 GB/s, 1-hop ~247..262,
            // 2-hop ~342..346.
            local_latency: 143,
            hop_penalty: 100,
            local_bandwidth: 10.9,
            remote_bandwidth: 5.3,
            per_core_stream_bw: 2.4,
        },
        power: PowerSpec {
            socket_base_w: 14.0,
            core_w: 7.5,
            smt_w: 0.0,
            dram_w: 22.0,
            has_rapl: false,
        },
        numbering: Numbering::SocketMajor,
        local_node_of_socket: (0..8).collect(),
        // The misconfigured OS swaps the node mapping of MCM partners.
        os_node_of_socket: vec![1, 0, 3, 2, 5, 4, 7, 6],
    }
}

/// Oracle SPARC T4-4: 4 sockets, 8 cores/socket, SMT-8, 256 contexts
/// (Fig. 3). SMT 101 cy, intra-socket 207 cy; glueless full
/// interconnect. Local memory 479 cy / 28.2 GB/s, remote ~685 / 15.2.
pub fn sparc() -> MachineSpec {
    MachineSpec {
        name: "sparc".into(),
        freq_ghz: 3.0,
        sockets: 4,
        cores_per_socket: 8,
        smt_per_core: 8,
        nodes: 4,
        smt_latency: 101,
        intra_levels: vec![IntraLevel {
            group_cores: 8,
            latency: 207,
        }],
        interconnect: Interconnect::full(4, 400, 135, 15.2),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 16 * KB,
                latency: 3,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 14,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 4 * MB,
                latency: 38,
                shared_by_cores: 8,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 256.0,
            local_latency: 479,
            hop_penalty: 206,
            local_bandwidth: 28.2,
            remote_bandwidth: 15.2,
            per_core_stream_bw: 3.6,
        },
        power: PowerSpec {
            socket_base_w: 45.0,
            core_w: 12.0,
            smt_w: 1.0,
            dram_w: 60.0,
            has_rapl: false,
        },
        numbering: Numbering::SocketMajor,
        local_node_of_socket: vec![0, 1, 2, 3],
        os_node_of_socket: vec![0, 1, 2, 3],
    }
}

/// All five evaluation platforms, in the order the paper's figures use.
pub fn all_paper_platforms() -> Vec<MachineSpec> {
    vec![ivy(), opteron(), haswell(), westmere(), sparc()]
}

/// Looks up a platform (paper, synthetic, or mesh-scale) by name.
pub fn by_name(name: &str) -> Option<MachineSpec> {
    let all = all_paper_platforms()
        .into_iter()
        .chain(all_synthetic())
        .chain(all_mesh_scale());
    all.into_iter().find(|m| m.name == name)
}

/// Small 2-socket SMT machine for fast tests: 2 x 4 cores x 2 contexts.
pub fn synthetic_small() -> MachineSpec {
    MachineSpec {
        name: "synth-small".into(),
        freq_ghz: 2.0,
        sockets: 2,
        cores_per_socket: 4,
        smt_per_core: 2,
        nodes: 2,
        smt_latency: 30,
        intra_levels: vec![IntraLevel {
            group_cores: 4,
            latency: 100,
        }],
        interconnect: Interconnect::full(2, 180, 110, 12.0),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 12,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 8 * MB,
                latency: 40,
                shared_by_cores: 4,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 32.0,
            local_latency: 250,
            hop_penalty: 100,
            local_bandwidth: 20.0,
            remote_bandwidth: 12.0,
            per_core_stream_bw: 6.0,
        },
        power: PowerSpec {
            socket_base_w: 15.0,
            core_w: 4.0,
            smt_w: 1.2,
            dram_w: 30.0,
            has_rapl: true,
        },
        numbering: Numbering::CoresFirst,
        local_node_of_socket: vec![0, 1],
        os_node_of_socket: vec![0, 1],
    }
}

/// A machine with an intermediate hwc_group level: pairs of cores share
/// an L2, so there are four latency levels inside the machine
/// (SMT 25 < shared-L2 55 < socket 105 < cross 290).
pub fn clustered_l2() -> MachineSpec {
    MachineSpec {
        name: "synth-clustered".into(),
        freq_ghz: 2.4,
        sockets: 2,
        cores_per_socket: 8,
        smt_per_core: 2,
        nodes: 2,
        smt_latency: 25,
        intra_levels: vec![
            IntraLevel {
                group_cores: 2,
                latency: 55,
            },
            IntraLevel {
                group_cores: 8,
                latency: 105,
            },
        ],
        interconnect: Interconnect::full(2, 170, 120, 14.0),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 512 * KB,
                latency: 14,
                shared_by_cores: 2,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 16 * MB,
                latency: 44,
                shared_by_cores: 8,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 64.0,
            local_latency: 260,
            hop_penalty: 110,
            local_bandwidth: 22.0,
            remote_bandwidth: 14.0,
            per_core_stream_bw: 5.5,
        },
        power: PowerSpec {
            socket_base_w: 16.0,
            core_w: 4.5,
            smt_w: 1.1,
            dram_w: 32.0,
            has_rapl: true,
        },
        numbering: Numbering::CoresFirst,
        local_node_of_socket: vec![0, 1],
        os_node_of_socket: vec![0, 1],
    }
}

/// A single-socket machine: no cross-socket level at all.
pub(crate) fn single_socket() -> MachineSpec {
    MachineSpec {
        name: "synth-single".into(),
        freq_ghz: 3.2,
        sockets: 1,
        cores_per_socket: 8,
        smt_per_core: 2,
        nodes: 1,
        smt_latency: 26,
        intra_levels: vec![IntraLevel {
            group_cores: 8,
            latency: 95,
        }],
        interconnect: Interconnect::new(1, 0, vec![]),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: MB,
                latency: 13,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 16 * MB,
                latency: 40,
                shared_by_cores: 8,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 64.0,
            local_latency: 230,
            hop_penalty: 0,
            local_bandwidth: 35.0,
            remote_bandwidth: 35.0,
            per_core_stream_bw: 9.0,
        },
        power: PowerSpec {
            socket_base_w: 12.0,
            core_w: 5.0,
            smt_w: 1.4,
            dram_w: 25.0,
            has_rapl: true,
        },
        numbering: Numbering::CoresFirst,
        local_node_of_socket: vec![0],
        os_node_of_socket: vec![0],
    }
}

/// No SMT, 2 sockets x 4 cores: CON_HWC / CON_CORE_HWC / CON_CORE must
/// coincide here (Section 6).
pub fn no_smt_small() -> MachineSpec {
    let mut m = synthetic_small();
    m.name = "synth-nosmt".into();
    m.smt_per_core = 1;
    m.smt_latency = 0;
    m
}

/// Four sockets sharing two memory nodes (footnote 2 of the paper:
/// "it is possible to have fewer memory nodes than sockets").
pub(crate) fn shared_node() -> MachineSpec {
    MachineSpec {
        name: "synth-shared-node".into(),
        freq_ghz: 2.2,
        sockets: 4,
        cores_per_socket: 4,
        smt_per_core: 1,
        nodes: 2,
        smt_latency: 0,
        intra_levels: vec![IntraLevel {
            group_cores: 4,
            latency: 100,
        }],
        interconnect: Interconnect::full(4, 190, 115, 11.0),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 32 * KB,
                latency: 4,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 256 * KB,
                latency: 12,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: 8 * MB,
                latency: 40,
                shared_by_cores: 4,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 64.0,
            local_latency: 260,
            hop_penalty: 105,
            local_bandwidth: 18.0,
            remote_bandwidth: 11.0,
            per_core_stream_bw: 5.0,
        },
        power: PowerSpec {
            socket_base_w: 14.0,
            core_w: 4.0,
            smt_w: 0.0,
            dram_w: 28.0,
            has_rapl: false,
        },
        numbering: Numbering::SocketMajor,
        local_node_of_socket: vec![0, 0, 1, 1],
        os_node_of_socket: vec![0, 0, 1, 1],
    }
}

/// `synthetic_small` with a scrambled context numbering: inference must
/// not depend on the OS id order.
pub(crate) fn scrambled() -> MachineSpec {
    let mut m = synthetic_small();
    m.name = "synth-scrambled".into();
    m.numbering = Numbering::Scrambled(0xC0FFEE);
    m
}

/// All synthetic machines.
pub fn all_synthetic() -> Vec<MachineSpec> {
    vec![
        synthetic_small(),
        clustered_l2(),
        single_socket(),
        no_smt_small(),
        shared_node(),
        scrambled(),
    ]
}

/// Shared body of the NoC-scale presets: tiny 2-core tiles, one tile
/// per socket, four shared memory controller nodes, socket-major
/// numbering (tile = context id / 2 — the structure-exploiting
/// collection in `mctop::alg` relies on that).
///
/// Uniform wire latency and bandwidth on every hop keep the
/// weakest-link path bandwidth independent of which of several
/// shortest paths the router picks, so the model stays well-defined
/// at any scale.
fn noc(name: String, sockets: usize, links: Vec<Link>, node_of: Vec<usize>) -> MachineSpec {
    MachineSpec {
        name,
        freq_ghz: 1.5,
        sockets,
        cores_per_socket: 2,
        smt_per_core: 1,
        nodes: 4,
        smt_latency: 0,
        intra_levels: vec![IntraLevel {
            group_cores: 2,
            latency: 90,
        }],
        interconnect: Interconnect::new(sockets, 150, links),
        caches: vec![
            CacheLevel {
                name: "L1".into(),
                size: 16 * KB,
                latency: 3,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "L2".into(),
                size: 128 * KB,
                latency: 10,
                shared_by_cores: 1,
            },
            CacheLevel {
                name: "LLC".into(),
                size: MB,
                latency: 30,
                shared_by_cores: 2,
            },
        ],
        mem: MemSpec {
            node_capacity_gb: 8.0,
            local_latency: 200,
            hop_penalty: 30,
            local_bandwidth: 12.0,
            remote_bandwidth: 6.0,
            per_core_stream_bw: 3.0,
        },
        power: PowerSpec {
            socket_base_w: 0.8,
            core_w: 0.4,
            smt_w: 0.0,
            dram_w: 10.0,
            has_rapl: false,
        },
        numbering: Numbering::SocketMajor,
        local_node_of_socket: node_of.clone(),
        os_node_of_socket: node_of,
    }
}

/// A `side x side` 2D mesh NoC: one 2-core tile per grid point,
/// 4-neighbour links, memory controllers in the four quadrants.
/// Latency between tiles is `150 + 60 * hops` — one distinct level per
/// Manhattan distance.
pub fn mesh(side: usize) -> MachineSpec {
    assert!(
        side >= 2 && side.is_multiple_of(2),
        "mesh side must be even and >= 2"
    );
    let sockets = side * side;
    let mut links = Vec::new();
    for y in 0..side {
        for x in 0..side {
            let s = y * side + x;
            if x + 1 < side {
                links.push(Link {
                    a: s,
                    b: s + 1,
                    wire: 60,
                    bandwidth: 8.0,
                });
            }
            if y + 1 < side {
                links.push(Link {
                    a: s,
                    b: s + side,
                    wire: 60,
                    bandwidth: 8.0,
                });
            }
        }
    }
    let node_of = (0..sockets)
        .map(|s| {
            let (x, y) = (s % side, s / side);
            usize::from(y >= side / 2) * 2 + usize::from(x >= side / 2)
        })
        .collect();
    noc(format!("synth-mesh-{sockets}"), sockets, links, node_of)
}

/// A multiplicative circulant NoC `C(n; 1, m, m^2, ...)`: tile `i`
/// links to `i +- m^j (mod n)` for every power of `m` below `n`. The
/// generator ladder gives logarithmic diameter — the "Routing in
/// Networks on Chip with Multiplicative Circulant Topology" family.
pub fn multiplicative_circulant(n: usize, m: usize) -> MachineSpec {
    assert!(m >= 2, "multiplier must be >= 2");
    let mut gens = Vec::new();
    let mut g = 1usize;
    while g < n {
        // Generators below n/2 only: g and n-g induce the same chords.
        assert!(g * 2 < n, "generator {g} degenerate for ring size {n}");
        gens.push(g);
        g *= m;
    }
    let mut links = Vec::new();
    for &g in &gens {
        for i in 0..n {
            let (a, b) = (i, (i + g) % n);
            links.push(Link {
                a: a.min(b),
                b: a.max(b),
                wire: 60,
                bandwidth: 8.0,
            });
        }
    }
    let node_of = (0..n).map(|s| s / n.div_ceil(4)).collect();
    noc(format!("synth-circulant-{n}"), n, links, node_of)
}

/// The NoC-scale ladder: committed as descriptions and measured by
/// `mctbench`'s mesh workloads, but deliberately *not* part of
/// [`all_synthetic`] — only the smallest two are compiled into the
/// shipped registry.
pub fn all_mesh_scale() -> Vec<MachineSpec> {
    vec![
        mesh(8),
        mesh(12),
        mesh(16),
        multiplicative_circulant(64, 4),
        multiplicative_circulant(256, 4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_context_counts() {
        // Section 2.1: 40, 48, 96, 160, 256 hardware contexts.
        assert_eq!(ivy().total_hwcs(), 40);
        assert_eq!(opteron().total_hwcs(), 48);
        assert_eq!(haswell().total_hwcs(), 96);
        assert_eq!(westmere().total_hwcs(), 160);
        assert_eq!(sparc().total_hwcs(), 256);
    }

    #[test]
    fn westmere_cross_latencies_match_fig2() {
        let w = westmere();
        // Direct links: 341 cycles.
        assert_eq!(w.interconnect.latency(0, 1), 341);
        assert_eq!(w.interconnect.latency(0, 4), 341);
        // Two-hop pairs exist and cost 458.
        let levels = w.interconnect.latency_levels();
        assert_eq!(levels, vec![341, 458]);
    }

    #[test]
    fn opteron_three_cross_levels_match_fig1() {
        let o = opteron();
        // MCM partner: 197; direct HT: 217; 2-hop: 300.
        assert_eq!(o.interconnect.latency(0, 1), 197);
        assert_eq!(o.interconnect.latency(0, 2), 217);
        assert_eq!(o.interconnect.latency(0, 3), 300);
        assert_eq!(o.interconnect.latency_levels(), vec![197, 217, 300]);
    }

    #[test]
    fn opteron_os_mapping_is_wrong_on_purpose() {
        let o = opteron();
        assert_ne!(o.os_node_of_socket, o.local_node_of_socket);
    }

    #[test]
    fn opteron_memory_latencies_match_fig1a() {
        let o = opteron();
        assert_eq!(o.mem_latency(0, 0), 143);
        assert_eq!(o.mem_latency(0, 1), 243); // Paper: 247.
        assert_eq!(o.mem_latency(0, 3), 343); // Paper: 343.
    }

    #[test]
    fn sparc_memory_matches_fig3() {
        let s = sparc();
        assert_eq!(s.mem_latency(0, 0), 479);
        assert_eq!(s.mem_latency(0, 1), 685); // Paper: 679..689.
        assert!((s.mem_bandwidth(0, 0) - 28.2).abs() < 1e-9);
    }

    #[test]
    fn by_name_roundtrip() {
        for m in all_paper_platforms().into_iter().chain(all_synthetic()) {
            let found = by_name(&m.name).expect("preset by name");
            assert_eq!(found.total_hwcs(), m.total_hwcs());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn mesh_latency_is_manhattan_distance() {
        let m = mesh(8);
        assert_eq!(m.sockets, 64);
        assert_eq!(m.total_hwcs(), 128);
        // Corner to corner: 7 + 7 = 14 hops.
        assert_eq!(m.interconnect.hops(0, 63), 14);
        assert_eq!(m.interconnect.latency(0, 63), 150 + 60 * 14);
        // Neighbours: one hop.
        assert_eq!(m.interconnect.latency(0, 1), 210);
        assert_eq!(m.interconnect.latency(0, 8), 210);
        // One latency level per Manhattan distance 1..=14.
        let levels = m.interconnect.latency_levels();
        assert_eq!(levels.len(), 14);
        assert!(levels.windows(2).all(|w| w[1] - w[0] == 60));
    }

    #[test]
    fn circulant_diameter_is_logarithmic() {
        let c = multiplicative_circulant(256, 4);
        assert_eq!(c.sockets, 256);
        // Chords 1, 4, 16, 64 in both directions: degree 8.
        let deg0 = c
            .interconnect
            .links
            .iter()
            .filter(|l| l.a == 0 || l.b == 0)
            .count();
        assert_eq!(deg0, 8);
        let diameter = (0..c.sockets)
            .map(|s| c.interconnect.hops(0, s))
            .max()
            .unwrap();
        assert!(diameter <= 8, "diameter {diameter} not logarithmic");
    }

    #[test]
    fn mesh_scale_presets_pass_check() {
        for spec in all_mesh_scale() {
            spec.check()
                .unwrap_or_else(|e| panic!("{}: {}", spec.name, e));
            let found = by_name(&spec.name).expect("mesh-scale preset by name");
            assert_eq!(found, spec);
        }
    }

    #[test]
    fn shared_node_has_fewer_nodes_than_sockets() {
        let m = shared_node();
        assert!(m.nodes < m.sockets);
        assert_eq!(m.socket_of_node(0), 0);
        assert_eq!(m.socket_of_node(1), 2);
    }
}
