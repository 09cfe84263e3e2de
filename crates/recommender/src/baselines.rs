//! Baseline recommenders for the evaluation harness.
//!
//! The paper has no open-source comparator, so the benches compare the
//! compound context-aware recommender against the standard internal
//! baselines: global popularity, content-only (the compound score with
//! `w_c = 1`, i.e. context ignored), and seeded random.

use crate::candidates::ScoredClip;
use crate::context::ListenerContext;
use crate::score::ScoringWeights;
use pphcr_audio::ClipId;
use pphcr_catalog::ContentRepository;
use pphcr_userdata::{FeedbackStore, PreferenceVector, UserId};
use std::collections::HashMap;

/// Ranks all repository clips by global like/listen counts — what a
/// non-personalized "most popular" rail would play.
#[must_use]
pub fn popularity_ranking(repo: &ContentRepository, feedback: &FeedbackStore) -> Vec<ScoredClip> {
    // Count positive events per clip over the whole population.
    let mut counts: HashMap<ClipId, f64> = HashMap::new();
    let mut max_count = 0.0f64;
    for user in feedback.known_users() {
        for ev in feedback.events(user) {
            if let Some(clip) = ev.clip {
                if ev.kind.weight() > 0.0 {
                    let c = counts.entry(clip).or_insert(0.0);
                    *c += 1.0;
                    max_count = max_count.max(*c);
                }
            }
        }
    }
    let denom = max_count.max(1.0);
    // The floor score keeps the baseline operational on a cold
    // population: "most popular" rails play *something* even before any
    // likes arrive.
    let mut out: Vec<ScoredClip> = repo
        .iter()
        .map(|meta| ScoredClip {
            clip: meta.id,
            duration: meta.duration,
            score: 0.05 + 0.95 * (counts.get(&meta.id).copied().unwrap_or(0.0) / denom),
            content_score: 0.0,
            context_score: 0.0,
            geo_distance_m: None,
            along_route_m: None,
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip)));
    out
}

/// Content-only ranking: the compound recommender with the context term
/// switched off (`w_c = 1`). The ablation arm of experiment E9.
#[must_use]
pub fn content_only_ranking(
    repo: &ContentRepository,
    feedback: &FeedbackStore,
    user: UserId,
    ctx: &ListenerContext,
    base: &ScoringWeights,
) -> Vec<ScoredClip> {
    let weights = ScoringWeights { content_weight: 1.0, ..*base };
    let filter = crate::candidates::CandidateFilter::default();
    let prefs = feedback.preferences(user, ctx.now);
    filter
        .candidates_excluding_stats(repo, &prefs, ctx, &weights, &std::collections::HashSet::new())
        .0
}

/// Seeded pseudo-random ranking (uniform shuffle) — the floor any
/// learned method must clear.
#[must_use]
pub fn random_ranking(repo: &ContentRepository, seed: u64) -> Vec<ScoredClip> {
    let mut out: Vec<ScoredClip> = repo
        .iter()
        .map(|meta| {
            // SplitMix-style hash of (seed, id) as the sort key.
            let mut z = seed ^ meta.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let score = (z >> 11) as f64 / (1u64 << 53) as f64;
            ScoredClip {
                clip: meta.id,
                duration: meta.duration,
                score,
                content_score: 0.0,
                context_score: 0.0,
                geo_distance_m: None,
                along_route_m: None,
            }
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip)));
    out
}

/// Utility for evaluation: mean preference alignment of the top-k of a
/// ranking, i.e. how much the listener actually likes what a strategy
/// would play. Shared by E9's harness.
#[must_use]
pub fn mean_pref_at_k(
    ranking: &[ScoredClip],
    repo: &ContentRepository,
    prefs: &PreferenceVector,
    k: usize,
) -> f64 {
    let top: Vec<f64> = ranking
        .iter()
        .take(k)
        .filter_map(|c| repo.get(c.clip))
        .map(|meta| prefs.score(meta.category))
        .collect();
    if top.is_empty() {
        return 0.0;
    }
    top.iter().sum::<f64>() / top.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::{CategoryId, ClipKind, ClipMetadata};
    use pphcr_geo::{GeoPoint, LocalProjection, TimePoint, TimeSpan};
    use pphcr_userdata::{FeedbackEvent, FeedbackKind};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn repo(n: u64) -> ContentRepository {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        for i in 0..n {
            r.ingest(ClipMetadata {
                id: ClipId(i),
                title: format!("clip {i}"),
                kind: ClipKind::Podcast,
                category: CategoryId::new((i % 30) as u16),
                category_confidence: 1.0,
                duration: TimeSpan::minutes(5),
                published: TimePoint::at(0, 6, 0, 0),
                geo: None,
                transcript: Vec::new(),
            });
        }
        r
    }

    #[test]
    fn popularity_ranks_liked_clips_first() {
        let r = repo(10);
        let mut fb = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        for user in 0..5 {
            fb.record(FeedbackEvent {
                user: UserId(user),
                clip: Some(ClipId(7)),
                category: CategoryId::new(7),
                kind: FeedbackKind::Like,
                time: t,
            });
        }
        fb.record(FeedbackEvent {
            user: UserId(0),
            clip: Some(ClipId(3)),
            category: CategoryId::new(3),
            kind: FeedbackKind::Like,
            time: t,
        });
        // Skips do not add popularity.
        fb.record(FeedbackEvent {
            user: UserId(1),
            clip: Some(ClipId(5)),
            category: CategoryId::new(5),
            kind: FeedbackKind::Skip,
            time: t,
        });
        let ranking = popularity_ranking(&r, &fb);
        assert_eq!(ranking[0].clip, ClipId(7));
        assert_eq!(ranking[1].clip, ClipId(3));
        assert!((ranking[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_varies_across_seeds() {
        let r = repo(20);
        let a = random_ranking(&r, 1);
        let b = random_ranking(&r, 1);
        let c = random_ranking(&r, 2);
        let ids = |v: &[ScoredClip]| v.iter().map(|x| x.clip).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn content_only_ignores_context_weighting() {
        let r = repo(30);
        let mut fb = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        for _ in 0..3 {
            fb.record(FeedbackEvent {
                user: UserId(1),
                clip: None,
                category: CategoryId::new(8),
                kind: FeedbackKind::Like,
                time: t,
            });
        }
        let ctx = ListenerContext::stationary(t);
        let ranking = content_only_ranking(&r, &fb, UserId(1), &ctx, &ScoringWeights::default());
        let top_meta = r.get(ranking[0].clip).unwrap();
        assert_eq!(top_meta.category, CategoryId::new(8));
    }

    #[test]
    fn mean_pref_at_k_reflects_alignment() {
        let r = repo(30);
        let mut fb = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        for _ in 0..3 {
            fb.record(FeedbackEvent {
                user: UserId(1),
                clip: None,
                category: CategoryId::new(8),
                kind: FeedbackKind::Like,
                time: t,
            });
        }
        let prefs = fb.preferences(UserId(1), t);
        let ctx = ListenerContext::stationary(t);
        let personalized =
            content_only_ranking(&r, &fb, UserId(1), &ctx, &ScoringWeights::default());
        let random = random_ranking(&r, 99);
        let p = mean_pref_at_k(&personalized, &r, &prefs, 3);
        let q = mean_pref_at_k(&random, &r, &prefs, 3);
        assert!(p > q, "personalized {p} vs random {q}");
    }

    #[test]
    fn empty_world_degrades_gracefully() {
        let r = repo(0);
        let fb = FeedbackStore::default();
        assert!(popularity_ranking(&r, &fb).is_empty());
        assert!(random_ranking(&r, 5).is_empty());
        assert_eq!(mean_pref_at_k(&[], &r, &PreferenceVector::neutral(), 10), 0.0);
    }
}
