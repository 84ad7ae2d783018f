package repro.hybrid

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.matrix.{COOMatrix, Exec}

/** Synthetic stand-ins for the paper's hybrid benchmark datasets (§9.2.2):
  * a Twitter-like corpus (users / tweets / hashtag entities) and a MIMIC-like
  * clinical set (patients / admissions / callouts). Both expose the same
  * two-stage structure: an RA preprocessing stage (SparkSQL joins + filters)
  * that constructs a dense feature matrix `M` and an ultra-sparse incidence
  * matrix `N`, followed by an LA stage (Table 7 pipelines).
  */
object HybridData {

  /** Tweet-side features (6) + user-side features (6) = M's 12 columns. */
  val TweetFeatures: Seq[String] =
    Seq("favorite_count", "quote_count", "reply_count", "retweet_count",
        "favorited", "possibly_sensitive")
  val UserFeatures: Seq[String] =
    Seq("followers_count", "friends_count", "listed_count", "protected",
        "verified", "statuses_count")

  final case class Twitter(users: DataFrame, tweets: DataFrame, entities: DataFrame,
                           nTweets: Long, nHashtags: Long)

  /** Deterministic Twitter-like tables. Keyword frequencies mirror the
    * paper's three selectivities: covid ≈ 40%, trump ≈ 20%, election ≈ 10%
    * of the ~30% US tweets. Each tweet draws 3 hashtags; a repeat counts once.
    */
  def twitter(spark: SparkSession, nUsers: Long, nTweets: Long, nHashtags: Long,
              seed: Long = 77): Twitter = {
    val entitiesPerTweet = 3
    val users = spark.range(nUsers).select(
      col("id") as "u_id",
      (rand(seed) * 10000).cast("double")     as "followers_count",
      (rand(seed + 1) * 2000).cast("double")  as "friends_count",
      (rand(seed + 2) * 100).cast("double")   as "listed_count",
      (rand(seed + 3) * 2).cast("int").cast("double")  as "protected",
      (rand(seed + 4) * 2).cast("int").cast("double")  as "verified",
      (rand(seed + 5) * 50000).cast("double") as "statuses_count",
    )
    val tweets = spark.range(nTweets).select(
      col("id") as "t_id",
      (rand(seed + 6) * nUsers).cast("long")  as "u_id",
      (rand(seed + 7) * 500).cast("double")   as "favorite_count",
      (rand(seed + 8) * 50).cast("double")    as "quote_count",
      (rand(seed + 9) * 80).cast("double")    as "reply_count",
      (rand(seed + 10) * 300).cast("double")  as "retweet_count",
      (rand(seed + 11) * 2).cast("int").cast("double") as "favorited",
      (rand(seed + 12) * 2).cast("int").cast("double") as "possibly_sensitive",
      when(rand(seed + 13) < 0.3, "US").otherwise("OTHER") as "country_code",
      when(rand(seed + 14) < 0.4, "covid")
        .when(rand(seed + 14) < 0.6, "trump")
        .when(rand(seed + 14) < 0.7, "election")
        .otherwise("other") as "kw",
    )
    val entities = spark.range(nTweets * entitiesPerTweet).select(
      (col("id") / entitiesPerTweet).cast("long")       as "t_id",
      (rand(seed + 15) * nHashtags).cast("long")        as "h_id",
      (rand(seed + 16) * 5 + 1).cast("int").cast("double") as "filter_level",
    ).dropDuplicates("t_id", "h_id")
    Twitter(users, tweets, entities, nTweets, nHashtags)
  }

  /** RA stage, matrix M: tweets ⋈ users, 12 numeric features, row = tweet. */
  def twitterM(t: Twitter): COOMatrix = {
    val joined = t.tweets.join(t.users, "u_id")
    wideToCoo(joined, "t_id", TweetFeatures ++ UserFeatures, t.nTweets)
  }

  /** RA stage, matrix N: tweet-hashtag filter-level matrix for US tweets
    * mentioning `kw` (the paper's §2 preprocessing query). With V2
    * registered, the Catalyst rule reads the `usEntities` part from it.
    */
  def twitterN(t: Twitter, kw: String): COOMatrix = {
    val kwTweets = t.tweets.filter(col("kw") === kw).select("t_id")
    val df = usEntities(t).join(kwTweets, "t_id")
      .select(col("t_id") as "i", col("h_id") as "j", col("filter_level") as "v")
    matrix(df, t.nTweets, t.nHashtags)
  }

  /** The paper's V2: id/hashtag/filter-level for all US tweets — the
    * materializable prefix shared by every per-keyword N construction.
    */
  def usEntities(t: Twitter): DataFrame =
    t.entities.join(t.tweets.filter(col("country_code") === "US").select("t_id"), "t_id")
      .select("t_id", "h_id", "filter_level")

  // --------------------------------------------------------------- MIMIC-lite

  final case class Mimic(patients: DataFrame, admissions: DataFrame,
                         callout: DataFrame, services: DataFrame,
                         nPatients: Long, nServices: Long)

  val PatientFeatures: Seq[String]   = (1 to 6).map(i => s"pf$i")
  val AdmissionFeatures: Seq[String] = (1 to 6).map(i => s"af$i")

  /** Deterministic MIMIC-like tables; care-unit frequencies mirror the
    * paper's three N sizes: CCU ≈ 40%, TSICU ≈ 20%, MICU ≈ 10%. Each
    * patient has 3 callouts.
    */
  def mimic(spark: SparkSession, nPatients: Long, nServices: Long): Mimic = {
    val (calloutsPerPatient, seed) = (3, 99L)
    def feats(prefix: String, n: Int, s: Long) =
      (1 to n).map(i => (rand(s + i) * 100).cast("double") as s"$prefix$i")
    val patients = spark.range(nPatients).select(
      (col("id") as "p_id") +: feats("pf", 6, seed): _*)
    val admissions = spark.range(nPatients).select(
      (col("id") as "p_id") +: feats("af", 6, seed + 10): _*)
    val callout = spark.range(nPatients * calloutsPerPatient).select(
      (col("id") / calloutsPerPatient).cast("long")     as "p_id",
      (rand(seed + 20) * nServices).cast("long")        as "s_id",
      when(rand(seed + 21) < 0.4, "CCU")
        .when(rand(seed + 21) < 0.6, "TSICU")
        .when(rand(seed + 21) < 0.7, "MICU")
        .otherwise("OTHER") as "careunit",
      (rand(seed + 22) * 4 + 1).cast("int").cast("double") as "outcome",
    ).dropDuplicates("p_id", "s_id")
    val services = spark.range(nServices).select(
      col("id") as "s_id", (rand(seed + 30) * 10).cast("double") as "svc_weight")
    Mimic(patients, admissions, callout, services, nPatients, nServices)
  }

  /** M: patients ⋈ admissions, 12 one-hot/numeric features, row = patient. */
  def mimicM(m: Mimic): COOMatrix = {
    val joined = m.patients.join(m.admissions, "p_id")
    wideToCoo(joined, "p_id", PatientFeatures ++ AdmissionFeatures, m.nPatients)
  }

  /** N: patient-service outcome matrix for one care unit. */
  def mimicN(m: Mimic, careunit: String): COOMatrix = {
    val df = m.callout.filter(col("careunit") === careunit)
      .join(m.services.select("s_id"), "s_id")
      .select(col("p_id") as "i", col("s_id") as "j", col("outcome") as "v")
    matrix(df, m.nPatients, m.nServices)
  }

  /** Row-indexed wide frame → COO matrix (the relation→matrix conversion of
    * the paper's §3, with the row order fixed by the key column).
    */
  def wideToCoo(df: DataFrame, keyCol: String, features: Seq[String], rows: Long): COOMatrix = {
    val arr = array(features.map(col): _*)
    val coo = df.select(col(keyCol) as "i", posexplode(arr).as(Seq("j", "v")))
      .filter(col("v") =!= 0.0)
    matrix(coo, rows, features.size.toLong)
  }

  /** An RA result as a matrix. One of at most `Exec.LocalWork` cells is
    * collected by the job that computes it and keeps that copy, so a later
    * `nnz` or local kernel runs no job; a larger one stays a lazy frame.
    */
  private def matrix(df: DataFrame, rows: Long, cols: Long): COOMatrix = {
    val m = COOMatrix(df, rows, cols)
    if (m.cells <= Exec.LocalWork) COOMatrix.fromLocal(df.sparkSession, m.local) else m
  }
}
